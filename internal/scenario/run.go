package scenario

import (
	"errors"
	"fmt"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/core"
	"tempo/internal/qs"
)

// ErrDone is returned by Runtime.Step once the spec's iteration budget is
// exhausted. A scenario's report length is part of its identity — goldens
// and the sequential-vs-sharded determinism checks compare byte-for-byte —
// so a runtime refuses to tick past Spec.Iterations instead of silently
// growing the report.
var ErrDone = errors.New("scenario: run complete")

// Run builds the spec and drives it to completion. The report is a pure
// function of the spec: every random stream is derived from Spec.Seed, the
// What-if Model's reduction is parallelism-independent, and the report's
// serialization is canonical, so the same spec always yields the same
// bytes.
func Run(spec *Spec, opts Options) (*Report, error) {
	rt, err := Build(spec, opts)
	if err != nil {
		return nil, err
	}
	return rt.Run()
}

// Run drives the built scenario for the spec's iteration count and
// assembles the canonical report. It is exactly Step-until-done plus
// Report, so a scenario driven one tick at a time (the serving path)
// produces byte-identical output.
func (rt *Runtime) Run() (*Report, error) {
	for !rt.Done() {
		if _, err := rt.Step(); err != nil {
			return nil, err
		}
	}
	return rt.Report(), nil
}

// Done reports whether the spec's iteration budget is exhausted.
func (rt *Runtime) Done() bool {
	return len(rt.iterations) >= rt.Spec.Iterations
}

// StepsDone returns how many control intervals have run.
func (rt *Runtime) StepsDone() int { return len(rt.iterations) }

// Step runs one control interval: Observe, then Apply.
func (rt *Runtime) Step() (IterationReport, error) {
	tick, sched, err := rt.Observe()
	if err != nil {
		return IterationReport{}, err
	}
	return rt.Apply(tick, sched)
}

// Current returns the RM configuration the next interval runs under.
func (rt *Runtime) Current() cluster.Config {
	if rt.Controller != nil {
		return rt.Controller.Current()
	}
	return rt.Initial.Clone()
}

// Observe simulates the next control interval and returns its index and
// schedule. It changes nothing: the schedule is a pure function of the
// spec, Current() and the index, so observing again before Apply yields an
// Equal schedule. It returns ErrDone once Spec.Iterations intervals ran.
func (rt *Runtime) Observe() (int, *cluster.Schedule, error) {
	tick := len(rt.iterations)
	if tick >= rt.Spec.Iterations {
		return 0, nil, ErrDone
	}
	sched, err := rt.env.observe(rt.Current(), rt.Interval, tick)
	return tick, sched, err
}

// Apply advances the scenario one interval on the schedule observed for it
// (with the controller enabled: guard/propose/score/apply) and records the
// iteration report and the schedule; a failed Apply records nothing.
// Nothing else advances a runtime — live ticks apply what Observe
// returned, crash recovery what the WAL logged. tick must be the next
// interval.
func (rt *Runtime) Apply(tick int, sched *cluster.Schedule) (IterationReport, error) {
	if tick != len(rt.iterations) {
		return IterationReport{}, fmt.Errorf("scenario %s: applying tick %d, expected %d", rt.Spec.Name, tick, len(rt.iterations))
	}
	it := IterationReport{Index: tick}
	var search *core.SearchStats
	if rt.Controller != nil {
		step, err := rt.Controller.Apply(sched)
		if err != nil {
			return IterationReport{}, err
		}
		it.Observed = step.Observed
		it.Switched = step.Switched
		it.Reverted = step.Reverted
		search = step.Search
	} else {
		it.Observed = qs.EvalStream(rt.Templates, sched, 0, sched.Horizon+time.Nanosecond)
	}
	fillScheduleStats(&it, sched)
	rt.iterations = append(rt.iterations, it)
	rt.schedules = append(rt.schedules, sched)
	rt.lastSearch = search
	return it, nil
}

// Search returns the controller's search statistics for iteration i if
// it is the last tick Apply ran (the only one callers read), else nil;
// also nil with the controller disabled. Deliberately not part of
// IterationReport: the stats depend on cache temperature (a resumed run
// re-drives identical decisions with different warm-start tallies), so
// folding them into the golden-committed report would break
// byte-identical resume. The returned struct is shared; treat it as
// read-only.
func (rt *Runtime) Search(i int) *core.SearchStats {
	if i != len(rt.iterations)-1 {
		return nil
	}
	return rt.lastSearch
}

// ObservedSchedule returns the task schedule iteration i ran under, or nil
// when that interval has not run yet. The schedule is shared, not copied —
// treat it as read-only.
func (rt *Runtime) ObservedSchedule(i int) *cluster.Schedule {
	if i < 0 || i >= len(rt.schedules) {
		return nil
	}
	return rt.schedules[i]
}

// Report assembles the canonical report over the intervals run so far.
// After the final Step it is the same report Run returns; mid-run it is a
// consistent prefix snapshot (the summary aggregates only completed
// intervals).
func (rt *Runtime) Report() *Report {
	spec := rt.Spec
	rep := &Report{
		Scenario:          spec.Name,
		Seed:              spec.Seed,
		Capacity:          spec.Capacity,
		IntervalMinutes:   spec.IntervalMinutes,
		Replay:            spec.Replay,
		ControllerEnabled: rt.Controller != nil,
		Iterations:        append([]IterationReport(nil), rt.iterations...),
	}
	for _, t := range rt.Templates {
		rep.Objectives = append(rep.Objectives, t.Name())
	}
	rep.Summary = summarize(rep, rt)
	return rep
}

// fillScheduleStats derives the iteration's job and container statistics
// from the observed task schedule.
func fillScheduleStats(it *IterationReport, s *cluster.Schedule) {
	it.Capacity = s.Capacity
	it.SubmittedJobs = len(s.Jobs)
	for i := range s.Jobs {
		j := &s.Jobs[i]
		if j.Completed {
			it.CompletedJobs++
		}
		if j.Killed {
			it.KilledJobs++
		}
		if j.Deadline > 0 {
			it.DeadlineJobs++
			if j.Completed && j.Finish > j.Deadline {
				it.DeadlineMisses++
			}
		}
	}
	it.Preemptions = s.PreemptionCount("", nil)
	useful, wasted := s.ContainerSeconds()
	it.UsefulContainerSeconds = useful.Seconds()
	it.WastedContainerSeconds = wasted.Seconds()
}

// summarize aggregates the per-iteration reports and captures the final RM
// configuration.
func summarize(rep *Report, rt *Runtime) Summary {
	sum := Summary{}
	n := len(rep.Iterations)
	if n == 0 {
		return sum
	}
	for i := range rep.Iterations {
		it := &rep.Iterations[i]
		if it.Switched {
			sum.Switches++
		}
		if it.Reverted {
			sum.Reverts++
		}
		sum.TotalPreemptions += it.Preemptions
		sum.TotalCompletedJobs += it.CompletedJobs
	}
	k := len(rep.Objectives)
	sum.FirstObserved = append([]float64(nil), rep.Iterations[0].Observed...)
	sum.LastQuarterMean = make([]float64, k)
	sum.Improvement = make([]float64, k)
	tail := rep.Iterations[(3*n)/4:]
	for _, it := range tail {
		for i := 0; i < k && i < len(it.Observed); i++ {
			sum.LastQuarterMean[i] += it.Observed[i]
		}
	}
	for i := 0; i < k; i++ {
		sum.LastQuarterMean[i] /= float64(len(tail))
		first := sum.FirstObserved[i]
		if first > 1e-12 || first < -1e-12 {
			imp := (first - sum.LastQuarterMean[i]) / first
			if first < 0 {
				imp = -imp
			}
			sum.Improvement[i] = imp
		}
	}
	final := rt.Current()
	for _, name := range rt.Spec.TenantNames() {
		tc := final.Tenant(name)
		sum.FinalConfig = append(sum.FinalConfig, TenantConfigReport{
			Tenant:                 name,
			Weight:                 tc.Weight,
			MinShare:               tc.MinShare,
			MaxShare:               tc.MaxShare,
			SharePreemptSeconds:    tc.SharePreemptTimeout.Seconds(),
			MinSharePreemptSeconds: tc.MinSharePreemptTimeout.Seconds(),
		})
	}
	return sum
}
