// Incremental QS evaluation over a schedule's records.
//
// The oracle path (Template.Eval / EvalAll) recomputes each metric by
// scanning every job and task record of the schedule, so evaluating k
// templates costs O(k·(jobs+tasks)) — the dominant cost of what-if
// candidate scoring once template counts grow with tenant counts. The
// Accumulator in this file indexes the same records (Schedule.Jobs and
// Schedule.Tasks, in place) once per distinct template filter, and then
// answers Value(From, To) queries for any half-open window:
//
//   - utilization and fairness from prefix integrals of the allocation
//     step function — O(log n) per query, bit-identical to the oracle
//     for every window (the integral is exact integer arithmetic);
//   - response time, deadline violations, and throughput from a mergesort
//     tree over (submit, finish) pairs — O(log² n) per query.
//
// Both kinds of index answer windows covering the whole schedule — the
// control loop's only production query shape — in O(1) from totals taken
// in one pass over the records, and build their sorted structures lazily,
// on the first query that clips a record. The totals sum in record order,
// so they reproduce the oracle's float summation order bit-for-bit, and
// the control loop pays O(jobs + tasks) per accumulator and never a sort.
//
// EvalAll remains the reference oracle; TestPropertyIncrementalOracle
// locks the equivalence (exact on full windows, 1e-9 elsewhere).
package qs

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/workload"
)

// Accumulator answers QS queries for a fixed template set over arbitrary
// [From, To) windows of one schedule. Accumulate is its only constructor
// and returns it complete: Value and Values never change what a later
// query returns and are safe for concurrent use.
type Accumulator struct {
	evals []func(from, to time.Duration) float64
}

// Accumulate indexes the schedule for the template set — the one-pass
// replacement for k independent EvalAll scans. Templates with identical
// filters share one job tree or allocation timeline, and records are
// partitioned by tenant once, so building the per-tenant indexes of k
// templates costs O(jobs + tasks + k) instead of O(k·(jobs + tasks)).
//
// The accumulator borrows the schedule: it reads s.Jobs and s.Tasks in
// place, during the call and again on the first sub-window query, and
// never writes them. It is valid exactly as long as those records are
// left alone — what-if scoring evaluates and drops it before the Sim's
// next run overwrites the schedule's records; a Session keeps
// accumulators only over observed schedules it owns and never mutates.
func Accumulate(templates []Template, s *cluster.Schedule) *Accumulator {
	return newIndexer(s).accumulate(templates)
}

func newIndexer(s *cluster.Schedule) *indexer {
	return &indexer{
		sched:         s,
		jobsByTenant:  byTenant(len(s.Jobs), func(i int) string { return s.Jobs[i].Tenant }),
		tasksByTenant: byTenant(len(s.Tasks), func(i int) string { return s.Tasks[i].Tenant }),
		trees:         map[jobSetKey]*jobTree{},
		lines:         map[utilKey]*timeline{},
	}
}

// accumulate builds the accumulator of the template set over ix's
// schedule, registering every index it shares in ix.
func (ix *indexer) accumulate(templates []Template) *Accumulator {
	a := &Accumulator{evals: make([]func(from, to time.Duration) float64, len(templates))}
	capacity := ix.sched.Capacity
	for i, t := range templates {
		priority := t.Priority
		if priority == 0 {
			priority = 1
		}
		switch t.Metric {
		case AvgResponseTime:
			tree := ix.jobTree(jobSetKey{tenant: t.Queue})
			a.evals[i] = func(from, to time.Duration) float64 {
				cnt, sum := tree.query(from, to)
				if cnt == 0 {
					return 0
				}
				return priority * (sum / float64(cnt))
			}
		case Throughput:
			tree := ix.jobTree(jobSetKey{tenant: t.Queue})
			a.evals[i] = func(from, to time.Duration) float64 {
				cnt, _ := tree.query(from, to)
				return priority * -float64(cnt)
			}
		case DeadlineViolations:
			tree := ix.jobTree(jobSetKey{tenant: t.Queue, deadline: true, slack: t.Slack})
			a.evals[i] = func(from, to time.Duration) float64 {
				cnt, violated := tree.query(from, to)
				if cnt == 0 {
					return 0
				}
				return priority * (violated / float64(cnt))
			}
		case Utilization:
			line := ix.timeline(utilKeyFor(t.Queue, t.TaskKind, t.EffectiveOnly))
			a.evals[i] = func(from, to time.Duration) float64 {
				return priority * -line.usedFraction(from, to, capacity)
			}
		case Fairness:
			mine := ix.timeline(utilKeyFor(t.Queue, nil, false))
			all := ix.timeline(utilKeyFor("", nil, false))
			share := t.DesiredShare
			a.evals[i] = func(from, to time.Duration) float64 {
				total := all.usedFraction(from, to, capacity)
				if total <= 0 {
					return 0
				}
				m := mine.usedFraction(from, to, capacity)
				return priority * math.Abs(share-m/total)
			}
		default:
			a.evals[i] = func(time.Duration, time.Duration) float64 {
				return priority * math.NaN()
			}
		}
	}
	return a
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
// bit-identical for windows covering the whole schedule and agree within
// float round-off (≤ 1e-9 relative) everywhere else. Callers that query
// many windows of one schedule should hold an Accumulator instead, which
// amortizes its build across queries.
func EvalStream(templates []Template, s *cluster.Schedule, from, to time.Duration) []float64 {
	if len(templates) < streamCutover {
		return EvalAll(templates, s, from, to)
	}
	return Accumulate(templates, s).Values(from, to)
}

// Value returns template i's QS value over [from, to).
func (a *Accumulator) Value(i int, from, to time.Duration) float64 {
	return a.evals[i](from, to)
}

// Values evaluates every template over the same window, producing the QS
// vector f(x; w) in template order — the incremental counterpart of
// EvalAll.
func (a *Accumulator) Values(from, to time.Duration) []float64 {
	out := make([]float64, len(a.evals))
	for i, eval := range a.evals {
		out[i] = eval(from, to)
	}
	return out
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

// indexer is Accumulate's working state: the borrowed schedule, its
// records partitioned by tenant, and the indexes built so far, one per
// distinct filter.
type indexer struct {
	sched         *cluster.Schedule
	jobsByTenant  map[string][]int32
	tasksByTenant map[string][]int32
	trees         map[jobSetKey]*jobTree
	lines         map[utilKey]*timeline
}

// byTenant partitions the record indexes [0, n) by tenant, each part in
// record order; "" — the all-tenants filter — holds every index. Record
// order matters: the fast-path totals must sum in the order the oracle
// scans. Every part is a window of one backing array: a counting pass
// looks each record's tenant up once, and a placing pass fills the parts.
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

func (ix *indexer) jobTree(key jobSetKey) *jobTree {
	t, ok := ix.trees[key]
	if !ok {
		t = newJobTree(ix.sched.Jobs, ix.jobsByTenant[key.tenant], key)
		ix.trees[key] = t
	}
	return t
}

// timeline returns the key's allocation timeline, totalling it on first
// use.
func (ix *indexer) timeline(key utilKey) *timeline {
	l, ok := ix.lines[key]
	if !ok {
		l = newTimeline(ix.sched.Tasks, ix.tasksByTenant[key.tenant], key)
		ix.lines[key] = l
	}
	return l
}

// timeline is a container-allocation step function over the key's task
// filter. Whole-schedule windows are answered from totals; the step
// function itself — sorted change points with prefix integrals — is built
// lazily on the first query that clips a task, so the control loop, which
// only asks for whole-schedule windows, never sorts. Like jobTree, it
// reads the schedule's task records in place.
type timeline struct {
	tasks   []cluster.TaskRecord // the schedule's records, borrowed
	indexes []int32              // the tenant's tasks, in record order
	key     utilKey              // selects the members among them

	// Whole-schedule totals over the members: attempts of positive width.
	// total is the exact container·nanosecond integral, so it equals the
	// step function's integral over any window containing [first, last).
	n           int
	first, last time.Duration // earliest Start, latest End
	total       int64

	// Lazily built step function (see build): counts[i] containers are
	// allocated on [times[i], times[i+1]), and integ[i] is the exact
	// integral over [times[0], times[i]).
	buildOnce sync.Once
	times     []time.Duration
	counts    []int64
	integ     []int64
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

// newTimeline totals the key's task set among the tenant's records.
func newTimeline(tasks []cluster.TaskRecord, indexes []int32, key utilKey) *timeline {
	l := &timeline{tasks: tasks, indexes: indexes, key: key}
	for _, idx := range indexes {
		t := &tasks[idx]
		if !key.member(t) {
			continue
		}
		if l.n == 0 {
			l.first, l.last = t.Start, t.End
		}
		l.first = min(l.first, t.Start)
		l.last = max(l.last, t.End)
		l.n++
		l.total += int64(t.End - t.Start)
	}
	return l
}

// build materializes the step function. Safe under concurrent queries.
func (l *timeline) build() {
	type delta struct {
		at time.Duration
		d  int64
	}
	deltas := make([]delta, 0, 2*l.n)
	for _, idx := range l.indexes {
		if t := &l.tasks[idx]; l.key.member(t) {
			deltas = append(deltas, delta{t.Start, +1}, delta{t.End, -1})
		}
	}
	slices.SortFunc(deltas, func(a, b delta) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	l.times = make([]time.Duration, 0, len(deltas))
	l.counts = make([]int64, 0, len(deltas))
	l.integ = make([]int64, 0, len(deltas))
	var count, integ int64
	for i := 0; i < len(deltas); {
		at := deltas[i].at
		if n := len(l.times); n > 0 {
			integ += count * int64(at-l.times[n-1])
		}
		for i < len(deltas) && deltas[i].at == at {
			count += deltas[i].d
			i++
		}
		l.times = append(l.times, at)
		l.counts = append(l.counts, count)
		l.integ = append(l.integ, integ)
	}
}

// integral returns the exact allocation integral over [times[0], t).
func (l *timeline) integral(t time.Duration) int64 {
	n := len(l.times)
	if n == 0 || t <= l.times[0] {
		return 0
	}
	if t >= l.times[n-1] {
		return l.integ[n-1] // count after the last change point is zero
	}
	// Largest i with times[i] <= t.
	i := sort.Search(n, func(k int) bool { return l.times[k] > t }) - 1
	return l.integ[i] + l.counts[i]*int64(t-l.times[i])
}

// usedFraction mirrors the legacy usedFraction: the fraction of the
// window's total container capacity the filtered tasks occupied. The
// integral is integer arithmetic, so the result is bit-identical to the
// record-scanning path for every window, and a window containing every
// member reads the total without building the step function.
func (l *timeline) usedFraction(from, to time.Duration, capacity int) float64 {
	length := to - from
	if length <= 0 || capacity <= 0 {
		return 0
	}
	used := l.total
	if l.n > 0 && (from > l.first || to < l.last) {
		l.buildOnce.Do(l.build)
		used = l.integral(to) - l.integral(from)
	}
	return float64(used) / (float64(length) * float64(capacity))
}

// jobItem is one indexed job: its submit and finish times plus the
// metric-specific payload (see jobSetKey.payload).
type jobItem struct {
	submit  time.Duration
	finish  time.Duration
	payload float64
}

// jobTree answers "count and payload-sum of jobs with Submit ∈ [from, to)
// and Finish < to" — the half-open job-set predicate of §5 — in
// O(log² n) via a mergesort tree over finish order, with an O(1) fast
// path for windows containing every job that reproduces the oracle's
// summation order exactly. The tree itself is built lazily on the first
// query the fast path cannot serve: production callers only ever ask for
// whole-schedule windows, so they pay O(n) totals and never the O(n log n)
// tree — nor a copy of the set, which stays in the schedule's records.
type jobTree struct {
	jobs    []cluster.JobRecord // the schedule's records, borrowed
	indexes []int32             // the tenant's jobs, in record order
	key     jobSetKey           // selects the set's members among them

	// Whole-schedule fast path, accumulated in record order so full-window
	// queries are bit-identical to the oracle scan. n counts the members.
	n         int
	minSubmit time.Duration
	maxSubmit time.Duration
	maxFinish time.Duration
	totalSum  float64

	// Lazily built window index (see build).
	buildOnce sync.Once
	finish    []time.Duration // member finish times, ascending
	// Mergesort tree: node v (1-based heap layout over 2n slots) covers a
	// contiguous finish-order range and stores that range's submits sorted
	// ascending, with aligned payload prefix sums.
	submits [][]time.Duration
	sums    [][]float64
}

// newJobTree totals the key's job set among the tenant's records.
func newJobTree(jobs []cluster.JobRecord, indexes []int32, key jobSetKey) *jobTree {
	t := &jobTree{jobs: jobs, indexes: indexes, key: key}
	for _, idx := range indexes {
		j := &jobs[idx]
		p, ok := key.payload(j)
		if !ok {
			continue
		}
		if t.n == 0 {
			t.minSubmit, t.maxSubmit, t.maxFinish = j.Submit, j.Submit, j.Finish
		}
		t.minSubmit = min(t.minSubmit, j.Submit)
		t.maxSubmit = max(t.maxSubmit, j.Submit)
		t.maxFinish = max(t.maxFinish, j.Finish)
		t.n++
		t.totalSum += p
	}
	return t
}

// build materializes the mergesort tree. Safe under concurrent queries.
func (t *jobTree) build() {
	sorted := make([]jobItem, 0, t.n)
	for _, idx := range t.indexes {
		j := &t.jobs[idx]
		if p, ok := t.key.payload(j); ok {
			sorted = append(sorted, jobItem{submit: j.Submit, finish: j.Finish, payload: p})
		}
	}
	slices.SortStableFunc(sorted, func(a, b jobItem) int {
		switch {
		case a.finish < b.finish:
			return -1
		case a.finish > b.finish:
			return 1
		}
		return 0
	})
	n := t.n
	finish := make([]time.Duration, n)
	for i := range sorted {
		finish[i] = sorted[i].finish
	}
	t.submits = make([][]time.Duration, 2*n)
	t.sums = make([][]float64, 2*n)
	for i := 0; i < n; i++ {
		t.submits[n+i] = []time.Duration{sorted[i].submit}
		t.sums[n+i] = []float64{0, sorted[i].payload}
	}
	for v := n - 1; v >= 1; v-- {
		t.submits[v], t.sums[v] = mergeNode(t.submits[2*v], t.sums[2*v], t.submits[2*v+1], t.sums[2*v+1])
	}
	t.finish = finish
}

// mergeNode merges two sorted child nodes into the parent's sorted submit
// list and payload prefix sums.
func mergeNode(ls []time.Duration, lsum []float64, rs []time.Duration, rsum []float64) ([]time.Duration, []float64) {
	out := make([]time.Duration, 0, len(ls)+len(rs))
	sums := make([]float64, 1, len(ls)+len(rs)+1)
	i, j := 0, 0
	total := 0.0
	for i < len(ls) || j < len(rs) {
		var v time.Duration
		var p float64
		if j >= len(rs) || (i < len(ls) && ls[i] <= rs[j]) {
			v, p = ls[i], lsum[i+1]-lsum[i]
			i++
		} else {
			v, p = rs[j], rsum[j+1]-rsum[j]
			j++
		}
		out = append(out, v)
		total += p
		sums = append(sums, total)
	}
	return out, sums
}

// query returns the count and payload sum of items with Submit ∈ [from,
// to) and Finish < to.
func (t *jobTree) query(from, to time.Duration) (int, float64) {
	if t.n == 0 || to <= from {
		return 0, 0
	}
	if from <= t.minSubmit && to > t.maxFinish && to > t.maxSubmit {
		return t.n, t.totalSum
	}
	t.buildOnce.Do(t.build)
	// Items with Finish < to form the prefix [0, k) in finish order.
	k := sort.Search(t.n, func(i int) bool { return t.finish[i] >= to })
	if k == 0 {
		return 0, 0
	}
	cnt, sum := 0, 0.0
	// Decompose [0, k) into canonical segment-tree nodes; per node, count
	// submits inside [from, to) via two binary searches on the sorted list.
	for l, r := t.n, t.n+k; l < r; l, r = l/2, r/2 {
		if l&1 == 1 {
			c, s := nodeRange(t.submits[l], t.sums[l], from, to)
			cnt, sum = cnt+c, sum+s
			l++
		}
		if r&1 == 1 {
			r--
			c, s := nodeRange(t.submits[r], t.sums[r], from, to)
			cnt, sum = cnt+c, sum+s
		}
	}
	return cnt, sum
}

// nodeRange counts one node's submits inside [from, to) and sums their
// payloads.
func nodeRange(submits []time.Duration, sums []float64, from, to time.Duration) (int, float64) {
	lo := sort.Search(len(submits), func(i int) bool { return submits[i] >= from })
	hi := sort.Search(len(submits), func(i int) bool { return submits[i] >= to })
	if hi <= lo {
		return 0, 0
	}
	return hi - lo, sums[hi] - sums[lo]
}
