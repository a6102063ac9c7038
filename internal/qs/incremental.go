// Incremental QS evaluation over a schedule's records.
//
// The oracle path (Template.Eval / EvalAll) recomputes each metric by
// scanning every job and task record of the schedule, so evaluating k
// templates costs O(k·(jobs+tasks)) — the dominant cost of what-if
// candidate scoring once template counts grow with tenant counts. A plan
// compiles the templates instead: one filter per distinct job set or
// allocation timeline, shared by every template that reads it, and a
// dispatch table from tenant to the filters its records feed. A plan
// reads no schedule; it answers a window of whichever schedule it is
// handed in one record-order pass over Schedule.Jobs and one over
// Schedule.Tasks, in place. Each record passing the oracle's own
// predicate — a job counts iff it completed with Submit ∈ [From, To) and
// Finish < To, a task by its width clipped to [From, To) in integer
// nanoseconds — feeds the all-tenants filters and its own tenant's, and
// each template combines its filters' sums.
//
// Every filter sums its members in record order, as the oracle does, so
// every value is bit-identical to the oracle on every window; EvalAll
// remains the reference, and TestPropertyIncrementalOracle locks the
// equivalence.
package qs

import (
	"math"
	"slices"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/workload"
)

// Compiled is a template set compiled once for any number of schedules:
// it reads no schedule, and Eval evaluates whichever schedule it is
// handed. The what-if scoring engine compiles its model's templates once
// per model shape and its workers share the set; the controller compiles
// its SLOs once for all its observations. Compile picks per-template
// scans or the one-pass plan by template count (streamCutover), so every
// consumer of a set evaluates it the same way. A Compiled is immutable
// and safe for concurrent use.
type Compiled struct {
	templates []Template // Compile's own copy, TaskKind included
	plan      *plan      // nil below streamCutover: Eval scans per template
}

// Compile compiles the templates. It copies them, TaskKind included, so
// later changes to the caller's templates do not reach the set.
func Compile(templates []Template) *Compiled {
	owned := slices.Clone(templates)
	for i, t := range owned {
		if t.TaskKind != nil {
			k := *t.TaskKind
			owned[i].TaskKind = &k
		}
	}
	return borrow(owned)
}

// borrow compiles templates without copying them: the set reads them
// for as long as it is used.
func borrow(templates []Template) *Compiled {
	c := &Compiled{templates: templates}
	if len(templates) >= streamCutover {
		c.plan = compile(templates)
	}
	return c
}

// Matches reports whether templates are, by value with TaskKind
// dereferenced, the set c was compiled from. A consumer that keeps a
// Compiled for a template slice it does not own recompiles when they are
// not.
func (c *Compiled) Matches(templates []Template) bool {
	return slices.EqualFunc(templates, c.templates, func(a, b Template) bool {
		ka, kb := a.TaskKind, b.TaskKind
		a.TaskKind, b.TaskKind = nil, nil
		return a == b && (ka == kb || ka != nil && kb != nil && *ka == *kb)
	})
}

// Eval evaluates every template over [from, to) of s, in template order.
// It reads s's records in place and keeps nothing of s.
func (c *Compiled) Eval(s *cluster.Schedule, from, to time.Duration) []float64 {
	if c.plan == nil {
		return EvalAll(c.templates, s, from, to)
	}
	return c.plan.values(s, from, to)
}

// streamCutover is the template count from which the one-pass plan beats
// per-template rescans. The oracle pays k record scans; the plan pays one
// pass over the records, feeding each to its tenant's filters, plus a
// little per template — so the crossover is a template count, not a
// record count. Measured by BenchmarkQSCutoverSweep on the bench stress
// fixture (1509 tasks): the oracle leads at k = 4 (2.3x), the plan from 8
// (1.9x there, ~8x at the fixture's own 173); at 2 templates the oracle
// is 8x (stress) to 46x (medium) ahead. EXPERIMENTS.md has the table;
// BenchmarkQSIncremental is the far end.
const streamCutover = 8

// EvalStream evaluates every template over [from, to) once: it compiles
// the templates, borrowing rather than copying them, and evaluates the
// set. Callers that evaluate the same templates again keep a Compiled
// instead. Either path the set picks is bit-identical to the other on
// every window.
func EvalStream(templates []Template, s *cluster.Schedule, from, to time.Duration) []float64 {
	return borrow(templates).Eval(s, from, to)
}

// Accumulator answers QS queries for a fixed template set over arbitrary
// [From, To) windows of one schedule, through the one-pass plan whatever
// the template count. Accumulate is its only constructor and returns it
// complete and immutable: Values keeps no state between calls and is
// safe for concurrent use.
type Accumulator struct {
	plan *plan
	s    *cluster.Schedule // borrowed
}

// Accumulate compiles the template set into a plan bound to the
// schedule. It reads no record: its cost is the template count's alone.
//
// The accumulator borrows the schedule: every Values call reads s.Jobs
// and s.Tasks in place, and never writes them. It is valid exactly as
// long as those records are left alone.
func Accumulate(templates []Template, s *cluster.Schedule) *Accumulator {
	return &Accumulator{plan: compile(templates), s: s}
}

// Values evaluates every template over the same window, producing the QS
// vector f(x; w) in template order — the incremental counterpart of
// EvalAll.
func (a *Accumulator) Values(from, to time.Duration) []float64 {
	return a.plan.values(a.s, from, to)
}

// plan is a template set compiled into shared filters.
type plan struct {
	sets  []jobSetKey // the distinct job filters, in first-use order
	lines []utilKey   // the distinct allocation filters, in first-use order
	terms []term      // one per template

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

// compile builds the templates' plan. Templates with identical filters
// share one job or allocation filter, so a window of k templates costs
// one pass over the records plus O(k), instead of O(k·(jobs + tasks)).
func compile(templates []Template) *plan {
	p := &plan{terms: make([]term, len(templates))}
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
		p.terms[i] = tm
	}
	p.sets = make([]jobSetKey, len(setAt))
	for k, at := range setAt {
		p.sets[at] = k
	}
	p.lines = make([]utilKey, len(lineAt))
	for k, at := range lineAt {
		p.lines[at] = k
	}
	p.group = map[string]int{"": 0}
	setGroup := make([]int, len(p.sets))
	for at, k := range p.sets {
		setGroup[at] = intern(p.group, k.tenant)
	}
	lineGroup := make([]int, len(p.lines))
	for at, k := range p.lines {
		lineGroup[at] = intern(p.group, k.tenant)
	}
	p.setFeed = newFeed(setGroup, len(p.group))
	p.lineFeed = newFeed(lineGroup, len(p.group))
	return p
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

// values evaluates every template over [from, to) of s. It makes one
// record-order pass over the jobs and one over the tasks: each in-window
// record feeds the all-tenants filters and its own tenant's, and each
// template then reads its filters' sums.
func (p *plan) values(s *cluster.Schedule, from, to time.Duration) []float64 {
	sets := make([]answer, len(p.sets))
	for i := range s.Jobs {
		j := &s.Jobs[i]
		if !j.Completed || j.Submit < from || j.Submit >= to || j.Finish >= to {
			continue
		}
		p.addJob(sets, 0, j)
		if g := p.group[j.Tenant]; g > 0 {
			p.addJob(sets, g, j)
		}
	}
	fracs := make([]float64, len(p.lines))
	if length := to - from; length > 0 && s.Capacity > 0 {
		used := make([]int64, len(p.lines))
		for i := range s.Tasks {
			t := &s.Tasks[i]
			w := min(t.End, to) - max(t.Start, from)
			if w <= 0 {
				continue
			}
			p.addTask(used, 0, t, w)
			if g := p.group[t.Tenant]; g > 0 {
				p.addTask(used, g, t, w)
			}
		}
		for at, u := range used {
			fracs[at] = float64(u) / (float64(length) * float64(s.Capacity))
		}
	}
	out := make([]float64, len(p.terms))
	for i, t := range p.terms {
		out[i] = t.value(sets, fracs)
	}
	return out
}

// addJob adds the in-window job j to the sums of group g's job filters.
func (p *plan) addJob(sets []answer, g int, j *cluster.JobRecord) {
	for _, at := range p.setFeed.of(g) {
		if v, ok := p.sets[at].payload(j); ok {
			sets[at].n++
			sets[at].sum += v
		}
	}
}

// addTask adds w, the in-window width of task t, to the integrals of
// group g's allocation filters.
func (p *plan) addTask(used []int64, g int, t *cluster.TaskRecord, w time.Duration) {
	for _, at := range p.lineFeed.of(g) {
		if p.lines[at].member(t) {
			used[at] += int64(w)
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
