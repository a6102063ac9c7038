// Incremental QS evaluation over a schedule's records.
//
// The oracle path (Template.Eval / EvalAll) recomputes each metric by
// scanning every job and task record of the schedule, so evaluating k
// templates costs O(k·(jobs+tasks)) — the dominant cost of what-if
// candidate scoring once template counts grow with tenant counts. The
// Accumulator in this file compiles the templates instead: one filter per
// distinct job set or allocation timeline, shared by every template that
// reads it, and a dispatch table from tenant to the filters its records
// feed. Values(From, To) then answers a window in one record-order pass
// over Schedule.Jobs and one over Schedule.Tasks, in place. Each record
// passing the oracle's own predicate — a job counts iff it completed with
// Submit ∈ [From, To) and Finish < To, a task by its width clipped to
// [From, To) in integer nanoseconds — feeds the all-tenants filters and
// its own tenant's, and each template combines its filters' sums.
//
// Every filter sums its members in record order, as the oracle does, so
// every value is bit-identical to the oracle on every window; EvalAll
// remains the reference, and TestPropertyIncrementalOracle locks the
// equivalence.
package qs

import (
	"math"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/workload"
)

// Accumulator answers QS queries for a fixed template set over arbitrary
// [From, To) windows of one schedule. Accumulate is its only constructor
// and returns it complete and immutable: Values keeps no state between
// calls and is safe for concurrent use.
type Accumulator struct {
	jobs     []cluster.JobRecord  // the schedule's records, borrowed
	tasks    []cluster.TaskRecord // the schedule's records, borrowed
	capacity int
	sets     []jobSetKey // the distinct job filters, in first-use order
	lines    []utilKey   // the distinct allocation filters, in first-use order
	terms    []term      // one per template

	// The dispatch table. group numbers the tenants that own a filter
	// from 1; group 0 holds the all-tenants filters, which every record
	// feeds. setFeed and lineFeed list each group's filters.
	group    map[string]int
	setFeed  feed
	lineFeed feed
}

// term is one template's recipe: which filters it reads and how it
// combines their sums, in the oracle's arithmetic.
type term struct {
	metric   Kind
	priority float64
	share    float64 // Fairness: the desired share
	in       int     // job metrics: its sets entry; Utilization, Fairness: its lines entry
	all      int     // Fairness: the all-tenants lines entry
}

// answer is one job filter's sum over a window: its member count and
// payload sum.
type answer struct {
	n   int
	sum float64
}

// feed is a flat group→filters table: group g's filter positions are
// at[pos[g]:pos[g+1]], in position order.
type feed struct {
	at, pos []int
}

// newFeed groups the filter positions [0, len(groupOf)) by their group
// numbers, which lie in [0, groups).
func newFeed(groupOf []int, groups int) feed {
	f := feed{at: make([]int, len(groupOf)), pos: make([]int, groups+1)}
	for _, g := range groupOf {
		f.pos[g+1]++
	}
	for g := 1; g <= groups; g++ {
		f.pos[g] += f.pos[g-1]
	}
	next := append([]int(nil), f.pos[:groups]...)
	for p, g := range groupOf {
		f.at[next[g]] = p
		next[g]++
	}
	return f
}

// of returns group g's filter positions.
func (f feed) of(g int) []int { return f.at[f.pos[g]:f.pos[g+1]] }

// Accumulate compiles the template set for the schedule — the one-pass
// replacement for k independent EvalAll scans. Templates with identical
// filters share one job or allocation filter, so a window of k templates
// costs one pass over the records plus O(k), instead of O(k·(jobs +
// tasks)). Accumulate itself reads no record: its cost is the template
// count's alone.
//
// The accumulator borrows the schedule: every Values call reads s.Jobs
// and s.Tasks in place, and never writes them. It is valid exactly as
// long as those records are left alone. EvalStream, its only production
// caller, evaluates and drops it within one call, so what-if scoring is
// done with it before the Sim's next run overwrites the schedule's
// records.
func Accumulate(templates []Template, s *cluster.Schedule) *Accumulator {
	a := &Accumulator{jobs: s.Jobs, tasks: s.Tasks, capacity: s.Capacity, terms: make([]term, len(templates))}
	setAt, lineAt := map[jobSetKey]int{}, map[utilKey]int{}
	for i, t := range templates {
		tm := term{metric: t.Metric, priority: t.Priority, share: t.DesiredShare}
		if tm.priority == 0 {
			tm.priority = 1
		}
		switch t.Metric {
		case AvgResponseTime, Throughput:
			tm.in = intern(setAt, jobSetKey{tenant: t.Queue})
		case DeadlineViolations:
			tm.in = intern(setAt, jobSetKey{tenant: t.Queue, deadline: true, slack: t.Slack})
		case Utilization:
			tm.in = intern(lineAt, utilKeyFor(t.Queue, t.TaskKind, t.EffectiveOnly))
		case Fairness:
			tm.in = intern(lineAt, utilKeyFor(t.Queue, nil, false))
			tm.all = intern(lineAt, utilKeyFor("", nil, false))
		}
		a.terms[i] = tm
	}
	a.sets = make([]jobSetKey, len(setAt))
	for k, p := range setAt {
		a.sets[p] = k
	}
	a.lines = make([]utilKey, len(lineAt))
	for k, p := range lineAt {
		a.lines[p] = k
	}
	a.group = map[string]int{"": 0}
	setGroup := make([]int, len(a.sets))
	for p, k := range a.sets {
		setGroup[p] = intern(a.group, k.tenant)
	}
	lineGroup := make([]int, len(a.lines))
	for p, k := range a.lines {
		lineGroup[p] = intern(a.group, k.tenant)
	}
	a.setFeed = newFeed(setGroup, len(a.group))
	a.lineFeed = newFeed(lineGroup, len(a.group))
	return a
}

// intern returns key k's position in at, numbering a new key next, so
// positions follow first use.
func intern[K comparable](at map[K]int, k K) int {
	p, ok := at[k]
	if !ok {
		p = len(at)
		at[k] = p
	}
	return p
}

// streamCutover is the template count from which the accumulator beats
// per-template rescans for a one-shot evaluation. The oracle pays k record
// scans; the accumulator pays one pass over the records, feeding each to
// its tenant's filters, plus a little per template — so the crossover is
// a template count, not a record count. Measured by BenchmarkQSCutoverSweep
// on the bench stress fixture (1509 tasks): the oracle leads at k = 4
// (2.3x), the accumulator from 8 (1.9x there, ~8x at the fixture's own
// 173); at 2 templates the oracle is 8x (stress) to 46x (medium) ahead.
// EXPERIMENTS.md has the table; BenchmarkQSIncremental is the far end.
const streamCutover = 8

// EvalStream evaluates every template over [from, to), picking the
// cheaper evaluation path for the template count: per-template record
// scans for small SLO sets (the paper-scale shape), the one-pass
// accumulator for large ones (the stress tier, where it is asymptotically
// ahead). The choice is invisible in the results: the two paths are
// bit-identical on every window.
func EvalStream(templates []Template, s *cluster.Schedule, from, to time.Duration) []float64 {
	if len(templates) < streamCutover {
		return EvalAll(templates, s, from, to)
	}
	return Accumulate(templates, s).Values(from, to)
}

// Values evaluates every template over the same window, producing the QS
// vector f(x; w) in template order — the incremental counterpart of
// EvalAll. It makes one record-order pass over the jobs and one over the
// tasks: each in-window record feeds the all-tenants filters and its own
// tenant's, and each template then reads its filters' sums.
func (a *Accumulator) Values(from, to time.Duration) []float64 {
	sets := make([]answer, len(a.sets))
	for i := range a.jobs {
		j := &a.jobs[i]
		if !j.Completed || j.Submit < from || j.Submit >= to || j.Finish >= to {
			continue
		}
		a.addJob(sets, 0, j)
		if g := a.group[j.Tenant]; g > 0 {
			a.addJob(sets, g, j)
		}
	}
	fracs := make([]float64, len(a.lines))
	if length := to - from; length > 0 && a.capacity > 0 {
		used := make([]int64, len(a.lines))
		for i := range a.tasks {
			t := &a.tasks[i]
			w := min(t.End, to) - max(t.Start, from)
			if w <= 0 {
				continue
			}
			a.addTask(used, 0, t, w)
			if g := a.group[t.Tenant]; g > 0 {
				a.addTask(used, g, t, w)
			}
		}
		for p, u := range used {
			fracs[p] = float64(u) / (float64(length) * float64(a.capacity))
		}
	}
	out := make([]float64, len(a.terms))
	for i, t := range a.terms {
		out[i] = t.value(sets, fracs)
	}
	return out
}

// addJob adds the in-window job j to the sums of group g's job filters.
func (a *Accumulator) addJob(sets []answer, g int, j *cluster.JobRecord) {
	for _, p := range a.setFeed.of(g) {
		if v, ok := a.sets[p].payload(j); ok {
			sets[p].n++
			sets[p].sum += v
		}
	}
}

// addTask adds w, the in-window width of task t, to the integrals of
// group g's allocation filters.
func (a *Accumulator) addTask(used []int64, g int, t *cluster.TaskRecord, w time.Duration) {
	for _, p := range a.lineFeed.of(g) {
		if a.lines[p].member(t) {
			used[p] += int64(w)
		}
	}
}

// value combines the window's filter sums into the term's QS value, in
// the oracle's arithmetic (Template.Eval): sets holds each job filter's
// answer, fracs each allocation filter's used fraction.
func (t term) value(sets []answer, fracs []float64) float64 {
	var v float64
	switch t.metric {
	case AvgResponseTime, DeadlineViolations:
		// Mean response seconds, or the fraction of jobs violating.
		if s := sets[t.in]; s.n > 0 {
			v = s.sum / float64(s.n)
		}
	case Throughput:
		v = -float64(sets[t.in].n)
	case Utilization:
		v = -fracs[t.in]
	case Fairness:
		if all := fracs[t.all]; all > 0 {
			v = math.Abs(t.share - fracs[t.in]/all)
		}
	default:
		v = math.NaN()
	}
	return t.priority * v
}

// jobSetKey identifies a shared job filter: the tenant ("" = all) plus, for
// deadline metrics, the slack that fixes per-job violation flags.
type jobSetKey struct {
	tenant   string
	deadline bool
	slack    float64
}

// payload reports whether j, a completed job of the key's tenant, belongs
// to the key's job set — every such job, or the deadline-carrying ones
// for deadline keys — and its metric payload: response seconds, or a 0/1
// violation flag.
func (k jobSetKey) payload(j *cluster.JobRecord) (float64, bool) {
	if !k.deadline {
		return (j.Finish - j.Submit).Seconds(), true
	}
	if j.Deadline <= 0 {
		return 0, false
	}
	// The violation test of the oracle, verbatim: finishing later than
	// deadline + slack·(response time) violates.
	dur := j.Finish - j.Submit
	limit := j.Deadline + time.Duration(k.slack*float64(dur))
	if j.Finish > limit {
		return 1, true
	}
	return 0, true
}

// utilKey identifies a shared allocation filter: tenant ("" = all), task
// kind filter (-1 = all), and the effective-only restriction.
type utilKey struct {
	tenant        string
	kind          int8
	effectiveOnly bool
}

func utilKeyFor(tenant string, kind *workload.TaskKind, effectiveOnly bool) utilKey {
	k := utilKey{tenant: tenant, kind: -1, effectiveOnly: effectiveOnly}
	if kind != nil {
		k.kind = int8(*kind)
	}
	return k
}

// member reports whether t, a task of the key's tenant, is in the key's
// task set.
func (k utilKey) member(t *cluster.TaskRecord) bool {
	if k.kind >= 0 && t.Kind != workload.TaskKind(k.kind) {
		return false
	}
	return !k.effectiveOnly || t.Outcome == cluster.TaskFinished
}
