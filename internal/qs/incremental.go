// Incremental QS evaluation over a schedule's records.
//
// The oracle path (Template.Eval / EvalAll) recomputes each metric by
// scanning every job and task record of the schedule, so evaluating k
// templates costs O(k·(jobs+tasks)) — the dominant cost of what-if
// candidate scoring once template counts grow with tenant counts. The
// Accumulator in this file partitions the same records (Schedule.Jobs and
// Schedule.Tasks, in place) by tenant once, keeps one index per distinct
// template filter — a job set or an allocation timeline over its tenant's
// records — and answers Values(From, To) for any half-open window by
// asking each index once and combining the answers per template:
//
//   - a window containing every member of an index — the control loop's
//     only production query shape — is answered in O(1) from totals taken
//     in one pass over the records at build time;
//   - any other window is answered by one pass over the index's tenant
//     records, in record order, with the oracle's own predicate: a job
//     counts iff Submit ∈ [From, To) and Finish < To, a task by its width
//     clipped to [From, To) in integer nanoseconds.
//
// Both sum in record order, as the oracle does, so every value is
// bit-identical to the oracle on every window; EvalAll remains the
// reference, and TestPropertyIncrementalOracle locks the equivalence.
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
	sets     []jobSet   // the distinct job filters, in first-use order
	lines    []timeline // the distinct allocation filters, in first-use order
	terms    []term     // one per template
}

// term is one template's recipe: which indexes it reads and how it
// combines their answers, in the oracle's arithmetic.
type term struct {
	metric   Kind
	priority float64
	share    float64 // Fairness: the desired share
	in       int     // job metrics: its sets entry; Utilization, Fairness: its lines entry
	all      int     // Fairness: the all-tenants lines entry
}

// answer is one job set's answer for a window: its member count and
// payload sum.
type answer struct {
	n   int
	sum float64
}

// Accumulate indexes the schedule for the template set — the one-pass
// replacement for k independent EvalAll scans. Templates with identical
// filters share one job set or allocation timeline, and records are
// partitioned by tenant once, so building the indexes of k templates
// costs O(jobs + tasks + k) instead of O(k·(jobs + tasks)).
//
// The accumulator borrows the schedule: it reads s.Jobs and s.Tasks in
// place, during the call and again on every sub-window query, and never
// writes them. It is valid exactly as long as those records are left
// alone. EvalStream, its only production caller, evaluates and drops it
// within one call, so what-if scoring is done with it before the Sim's
// next run overwrites the schedule's records.
func Accumulate(templates []Template, s *cluster.Schedule) *Accumulator {
	a := &Accumulator{jobs: s.Jobs, tasks: s.Tasks, capacity: s.Capacity, terms: make([]term, len(templates))}
	jobsOf := byTenant(len(s.Jobs), func(i int) string { return s.Jobs[i].Tenant })
	tasksOf := byTenant(len(s.Tasks), func(i int) string { return s.Tasks[i].Tenant })
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
	a.sets = make([]jobSet, len(setAt))
	for k, p := range setAt {
		a.sets[p] = newJobSet(s.Jobs, jobsOf[k.tenant], k)
	}
	a.lines = make([]timeline, len(lineAt))
	for k, p := range lineAt {
		a.lines[p] = newTimeline(s.Tasks, tasksOf[k.tenant], k)
	}
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

// streamCutover is the template count from which the incremental path
// beats per-template rescans for a one-shot evaluation. The oracle pays k
// record scans; the accumulator pays a near-constant indexing cost (one
// pass partitioning the records by tenant and totalling each distinct
// filter's records) plus a little per template — so the crossover is a
// template count, not a record count. Measured by BenchmarkQSCutoverSweep
// on the bench stress fixture (1509 tasks): the oracle leads up to k = 12,
// the accumulator from 16 (1.07x there, ~5x at the fixture's own 173); at
// 2 templates the oracle is 15x (stress) to 46x (medium) ahead.
// EXPERIMENTS.md has the table; BenchmarkQSIncremental is the far end.
const streamCutover = 16

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
// EvalAll. Each distinct index is asked once, however many templates
// read it.
func (a *Accumulator) Values(from, to time.Duration) []float64 {
	sets := make([]answer, len(a.sets))
	for k := range a.sets {
		sets[k] = a.sets[k].query(a.jobs, from, to)
	}
	fracs := make([]float64, len(a.lines))
	for k := range a.lines {
		fracs[k] = a.lines[k].usedFraction(a.tasks, from, to, a.capacity)
	}
	out := make([]float64, len(a.terms))
	for i, t := range a.terms {
		out[i] = t.value(sets, fracs)
	}
	return out
}

// value combines the window's index answers into the term's QS value, in
// the oracle's arithmetic (Template.Eval): sets holds each job set's
// answer, fracs each timeline's used fraction.
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

// jobSetKey identifies a shared job index: the tenant filter plus, for
// deadline metrics, the slack that fixes per-job violation flags.
type jobSetKey struct {
	tenant   string
	deadline bool
	slack    float64
}

// payload reports whether j belongs to the key's job set — completed
// jobs, restricted to deadline-carrying ones for deadline keys — and its
// metric payload: response seconds, or a 0/1 violation flag.
func (k jobSetKey) payload(j *cluster.JobRecord) (float64, bool) {
	if !j.Completed {
		return 0, false
	}
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

// utilKey identifies a shared allocation timeline: tenant filter, task
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

// member reports whether t is in the key's task set. Zero-width (or
// malformed) attempts contribute nothing in the oracle and are left out.
func (k utilKey) member(t *cluster.TaskRecord) bool {
	if k.kind >= 0 && t.Kind != workload.TaskKind(k.kind) {
		return false
	}
	if k.effectiveOnly && t.Outcome != cluster.TaskFinished {
		return false
	}
	return t.End > t.Start
}

// byTenant partitions the record indexes [0, n) by tenant, each part in
// record order; "" — the all-tenants filter — holds every index. Record
// order matters: every answer sums in the order the oracle scans. Every
// part is a window of one backing array: a counting pass looks each
// record's tenant up once, and a placing pass fills the parts.
func byTenant(n int, tenant func(i int) string) map[string][]int32 {
	backing := make([]int32, 2*n)
	all, rest := backing[:n:n], backing[n:]
	number := map[string]int32{}
	var names []string
	var slot []int // per part: its size, then its next free index in rest
	for i := range all {
		all[i] = -1 // record i's part number until the placing pass
		if t := tenant(i); t != "" {
			p, ok := number[t]
			if !ok {
				p = int32(len(names))
				number[t] = p
				names = append(names, t)
				slot = append(slot, 0)
			}
			all[i] = p
			slot[p]++
		}
	}
	parts := make(map[string][]int32, len(names)+1)
	parts[""] = all
	off := 0
	for p, name := range names {
		size := slot[p]
		parts[name] = rest[off : off+size : off+size]
		slot[p] = off
		off += size
	}
	for i, p := range all {
		if p >= 0 {
			rest[slot[p]] = int32(i)
			slot[p]++
		}
		all[i] = int32(i)
	}
	return parts
}

// jobSet answers "count and payload sum of the key's jobs with Submit ∈
// [from, to) and Finish < to" — the half-open job-set predicate of §5 —
// over one tenant's job records, which it reads in place.
type jobSet struct {
	key     jobSetKey
	indexes []int32 // the tenant's jobs, in record order

	// Whole-schedule totals over the members, summed in record order: the
	// answer of every window containing them all.
	total       answer
	first, last time.Duration // earliest Submit; latest Submit or Finish
}

// newJobSet totals the key's job set among the tenant's records.
func newJobSet(jobs []cluster.JobRecord, indexes []int32, key jobSetKey) jobSet {
	s := jobSet{key: key, indexes: indexes}
	for _, idx := range indexes {
		j := &jobs[idx]
		p, ok := key.payload(j)
		if !ok {
			continue
		}
		if s.total.n == 0 {
			s.first, s.last = j.Submit, j.Submit
		}
		s.first = min(s.first, j.Submit)
		s.last = max(s.last, j.Submit, j.Finish)
		s.total.n++
		s.total.sum += p
	}
	return s
}

// query answers the window from the totals when it contains every member,
// and otherwise by one pass over the tenant's jobs in record order.
func (s *jobSet) query(jobs []cluster.JobRecord, from, to time.Duration) answer {
	if s.total.n == 0 || (from <= s.first && to > s.last) {
		return s.total
	}
	var a answer
	for _, idx := range s.indexes {
		j := &jobs[idx]
		if j.Submit < from || j.Submit >= to || j.Finish >= to {
			continue
		}
		if p, ok := s.key.payload(j); ok {
			a.n++
			a.sum += p
		}
	}
	return a
}

// timeline is the container allocation of the key's task filter over one
// tenant's task records, which it reads in place.
type timeline struct {
	key     utilKey
	indexes []int32 // the tenant's tasks, in record order

	// Whole-schedule totals over the members (attempts of positive width,
	// so a zero total means none): the exact container·nanosecond
	// integral, and the span [first, last) it lies in.
	total       int64
	first, last time.Duration // earliest Start, latest End
}

// newTimeline totals the key's task set among the tenant's records.
func newTimeline(tasks []cluster.TaskRecord, indexes []int32, key utilKey) timeline {
	l := timeline{key: key, indexes: indexes}
	for _, idx := range indexes {
		t := &tasks[idx]
		if !key.member(t) {
			continue
		}
		if l.total == 0 {
			l.first, l.last = t.Start, t.End
		}
		l.first = min(l.first, t.Start)
		l.last = max(l.last, t.End)
		l.total += int64(t.End - t.Start)
	}
	return l
}

// usedFraction mirrors the oracle's usedFraction: the fraction of the
// window's total container capacity the filtered tasks occupied. A window
// containing every member reads the total; any other sums the members'
// widths clipped to [from, to) in integer nanoseconds, as the oracle
// does, so the result is bit-identical to it for every window.
func (l *timeline) usedFraction(tasks []cluster.TaskRecord, from, to time.Duration, capacity int) float64 {
	length := to - from
	if length <= 0 || capacity <= 0 {
		return 0
	}
	used := l.total
	if used > 0 && (from > l.first || to < l.last) {
		used = 0
		for _, idx := range l.indexes {
			t := &tasks[idx]
			if w := min(t.End, to) - max(t.Start, from); w > 0 && l.key.member(t) {
				used += int64(w)
			}
		}
	}
	return float64(used) / (float64(length) * float64(capacity))
}
