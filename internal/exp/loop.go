package exp

import (
	"fmt"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/pald"
	"tempo/internal/qs"
	"tempo/internal/scenario"
	"tempo/internal/whatif"
	"tempo/internal/workload"
)

// loopCapacity and loopScale put the two-tenant scenario under real
// contention (~70-80% offered load), where RM configuration genuinely
// matters — matching the busy production clusters the paper targets.
const (
	loopCapacity = 48
	loopScale    = 2.2
)

// runTwoTenant runs the §8.2.1 scenario (TwoTenantSpec) for the given
// number of one-hour intervals, with an optional optimizer override (nil
// keeps PALD) and revert guard ("" keeps on-worse).
func runTwoTenant(seed int64, slack float64, iterations int, strategy pald.Strategy, revert string) (*scenario.Report, error) {
	spec := TwoTenantSpec(seed, slack, time.Hour, iterations)
	spec.Controller.Revert = revert
	return scenario.Run(spec, scenario.Options{Strategy: strategy, Parallelism: Parallelism})
}

// Figure6Series is one slack setting's trajectory.
type Figure6Series struct {
	Slack float64
	// NormalizedAJR is best-effort QS_AJR divided by iteration 0's value.
	NormalizedAJR []float64
	// DeadlineViolationPct is QS_DL × 100 per iteration.
	DeadlineViolationPct []float64
	// Improvement is the relative AJR reduction at convergence.
	Improvement float64
}

// Figure6Result is the control-loop convergence experiment (§8.2.1).
type Figure6Result struct {
	Iterations int
	Series     []Figure6Series
}

// Figure6 runs the Tempo control loop for 25% and 50% deadline slack and
// records the per-iteration SLO trajectory, as in Figure 6.
func Figure6(seed int64, iterations int) (*Figure6Result, error) {
	if iterations <= 0 {
		iterations = 20
	}
	res := &Figure6Result{Iterations: iterations}
	for _, slack := range []float64{0.25, 0.5} {
		rep, err := runTwoTenant(seed, slack, iterations, nil, "")
		if err != nil {
			return nil, err
		}
		series := Figure6Series{Slack: slack, Improvement: rep.Summary.Improvement[1]}
		base := rep.Iterations[0].Observed[1]
		if base <= 0 {
			base = 1
		}
		for _, it := range rep.Iterations {
			series.NormalizedAJR = append(series.NormalizedAJR, it.Observed[1]/base)
			series.DeadlineViolationPct = append(series.DeadlineViolationPct, it.Observed[0]*100)
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Render prints the two trajectories.
func (r *Figure6Result) Render() string {
	var rows [][]string
	for _, s := range r.Series {
		for i := range s.NormalizedAJR {
			rows = append(rows, []string{
				fmt.Sprintf("%.0f%%", s.Slack*100),
				fmt.Sprintf("%d", i),
				fmt.Sprintf("%.3f", s.NormalizedAJR[i]),
				fmt.Sprintf("%.1f", s.DeadlineViolationPct[i]),
			})
		}
	}
	head := "Figure 6: control-loop trajectory"
	for _, s := range r.Series {
		head += fmt.Sprintf(" | slack %.0f%%: AJR improvement %.0f%%", s.Slack*100, s.Improvement*100)
	}
	return head + "\n" + table([]string{"slack", "iter", "AJR (norm)", "DL viol %"}, rows)
}

// Figure9Result compares the four SLOs before and after optimization.
type Figure9Result struct {
	// Values are [AJR seconds, DL fraction, map effective-work fraction,
	// reduce effective-work fraction]. The effective-work fraction is
	// useful container time divided by total busy container time per kind
	// — exactly the quantity Figure 1 motivates (preempted work is the
	// lost region I) and the lever behind Figure 9's reduce-utilization
	// gain.
	Original, Optimized [4]float64
	// Improvements are relative changes, positive = better.
	Improvements [4]float64
	// PreemptionsOriginal/Optimized count killed attempts on the verify
	// replay — the mechanism behind the reduce-utilization gain.
	PreemptionsOriginal, PreemptionsOptimized int
}

// Figure9 is the utilization scenario (§8.2.2): the preemption-prone mix
// plus map/reduce effective-utilization SLOs whose targets are set to the
// levels measured under the expert configuration.
func Figure9(seed int64, iterations int) (*Figure9Result, error) {
	if iterations <= 0 {
		iterations = 15
	}
	spec := figure9Spec(seed, iterations)
	// A build with the loop off yields the replayed trace, the expert
	// configuration and the target-less templates to probe with.
	spec.Controller.Disabled = true
	probeRT, err := scenario.Build(spec, scenario.Options{})
	if err != nil {
		return nil, err
	}
	trace, expert, interval := probeRT.Trace, probeRT.Initial, probeRT.Interval
	probe, err := cluster.Run(trace, expert, cluster.Options{Horizon: interval, Noise: cluster.DefaultNoise(seed + 4)})
	if err != nil {
		return nil, err
	}
	// As in the paper, every r_i is the level measured under the expert
	// configuration: deadlines must not get worse, utilizations must not
	// drop, and the best-effort response time ratchets downward.
	end := probe.Horizon + time.Nanosecond
	for _, i := range []int{0, 2, 3} {
		target := probeRT.Templates[i].Eval(probe, 0, end)
		spec.SLOs[i].Target = &target
	}
	spec.Controller.Disabled = false
	rt, err := scenario.Build(spec, scenario.Options{Parallelism: Parallelism})
	if err != nil {
		return nil, err
	}
	if _, err := rt.Run(); err != nil {
		return nil, err
	}

	// Verify on a deterministic replay of the same workload: expert vs
	// final configuration.
	sExpert, err := cluster.Run(trace, expert, cluster.Options{Horizon: interval})
	if err != nil {
		return nil, err
	}
	sFinal, err := cluster.Run(trace, rt.Current(), cluster.Options{Horizon: interval})
	if err != nil {
		return nil, err
	}
	res := &Figure9Result{
		PreemptionsOriginal:  sExpert.PreemptionCount("", nil),
		PreemptionsOptimized: sFinal.PreemptionCount("", nil),
	}
	fill := func(s *cluster.Schedule, out *[4]float64) {
		out[1] = probeRT.Templates[0].Eval(s, 0, s.Horizon+time.Nanosecond)
		out[2] = effectiveWorkFraction(s, workload.Map)
		out[3] = effectiveWorkFraction(s, workload.Reduce)
	}
	fill(sExpert, &res.Original)
	fill(sFinal, &res.Optimized)
	// AJR is compared over the jobs completed in *both* runs: the windowed
	// job set shifts when the configuration changes (more long jobs finish
	// under the better config), and a paired comparison removes that
	// survivorship bias.
	res.Original[0], res.Optimized[0] = pairedAJR(sExpert, sFinal, "besteffort")
	for i := range res.Original {
		if res.Original[i] != 0 {
			switch i {
			case 0, 1: // lower is better
				res.Improvements[i] = (res.Original[i] - res.Optimized[i]) / res.Original[i]
			default: // higher is better
				res.Improvements[i] = (res.Optimized[i] - res.Original[i]) / res.Original[i]
			}
		}
	}
	return res, nil
}

// pairedAJR returns the mean response time of the tenant's jobs that
// completed in both schedules.
func pairedAJR(a, b *cluster.Schedule, tenant string) (meanA, meanB float64) {
	respA := map[string]float64{}
	ta, tb := a.TenantIndex(tenant), b.TenantIndex(tenant)
	for i := range a.Jobs {
		j := &a.Jobs[i]
		if j.Tenant == ta && j.Completed {
			respA[j.ID] = (j.Finish - j.Submit).Seconds()
		}
	}
	var sumA, sumB float64
	n := 0
	for i := range b.Jobs {
		j := &b.Jobs[i]
		if j.Tenant != tb || !j.Completed {
			continue
		}
		ra, ok := respA[j.ID]
		if !ok {
			continue
		}
		sumA += ra
		sumB += (j.Finish - j.Submit).Seconds()
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sumA / float64(n), sumB / float64(n)
}

// effectiveWorkFraction returns useful/(useful+wasted) container time for
// one task kind.
func effectiveWorkFraction(s *cluster.Schedule, kind workload.TaskKind) float64 {
	var useful, wasted time.Duration
	for i := range s.Tasks {
		t := &s.Tasks[i]
		if t.Kind != kind {
			continue
		}
		switch t.Outcome {
		case cluster.TaskFinished:
			useful += t.Duration()
		case cluster.TaskPreempted, cluster.TaskFailed, cluster.TaskKilled:
			wasted += t.Duration()
		}
	}
	total := useful + wasted
	if total <= 0 {
		return 1
	}
	return float64(useful) / float64(total)
}

// Render prints the four-bar comparison.
func (r *Figure9Result) Render() string {
	names := []string{"AJR (s)", "DL fraction", "map effective-work", "reduce effective-work"}
	var rows [][]string
	for i, n := range names {
		rows = append(rows, []string{
			n,
			fmt.Sprintf("%.3f", r.Original[i]),
			fmt.Sprintf("%.3f", r.Optimized[i]),
			fmt.Sprintf("%+.1f%%", r.Improvements[i]*100),
		})
	}
	return fmt.Sprintf("Figure 9: SLOs under original vs optimized config (preempted attempts %d -> %d)\n",
		r.PreemptionsOriginal, r.PreemptionsOptimized) +
		table([]string{"SLO", "original", "optimized", "improvement"}, rows)
}

// Figure11Row is one control-interval length's outcome.
type Figure11Row struct {
	Interval time.Duration
	// NormalizedAJR is the tuned run's final-half mean best-effort AJR
	// divided by the untuned run's, both observed over the same windows.
	NormalizedAJR float64
	// DeadlinePct and BaselineDeadlinePct are the final-half deadline
	// violation percentages of the tuned and the untuned run.
	DeadlinePct, BaselineDeadlinePct float64
}

// Figure11Result is the adaptivity-to-interval-length experiment (§8.2.3).
type Figure11Result struct {
	Rows []Figure11Row
}

// Figure11 plays one drifting workload through the control loop with
// interval lengths of 15, 30, and 45 minutes. Each length's baseline is
// the same scenario with the controller disabled, so tuned and untuned
// runs are summarised over the same windows and the same final half.
func Figure11(seed int64) (*Figure11Result, error) {
	res := &Figure11Result{}
	for _, interval := range []time.Duration{15 * time.Minute, 30 * time.Minute, 45 * time.Minute} {
		spec := figure11Spec(seed, interval)
		tuned, err := scenario.Run(spec, scenario.Options{Parallelism: Parallelism})
		if err != nil {
			return nil, err
		}
		spec.Controller.Disabled = true
		untuned, err := scenario.Run(spec, scenario.Options{})
		if err != nil {
			return nil, err
		}
		ajr, dl := finalHalf(tuned)
		baseAJR, baseDL := finalHalf(untuned)
		row := Figure11Row{Interval: interval, DeadlinePct: dl * 100, BaselineDeadlinePct: baseDL * 100}
		if baseAJR > 0 {
			row.NormalizedAJR = ajr / baseAJR
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// finalHalf averages the best-effort AJR and the deadline violations over
// the second half of a Figure 11 run, skipping windows in which no
// best-effort job completed.
func finalHalf(rep *scenario.Report) (ajr, dl float64) {
	n := 0
	for _, it := range rep.Iterations[len(rep.Iterations)/2:] {
		if it.Observed[1] > 0 {
			ajr += it.Observed[1]
			dl += it.Observed[0]
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return ajr / float64(n), dl / float64(n)
}

// Render prints the comparison.
func (r *Figure11Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Interval.String(),
			fmt.Sprintf("%.3f", row.NormalizedAJR),
			fmt.Sprintf("%.1f", row.DeadlinePct),
			fmt.Sprintf("%.1f", row.BaselineDeadlinePct),
		})
	}
	return "Figure 11: SLOs vs control-loop interval length (AJR normalized to the untuned run over the same windows)\n" +
		table([]string{"interval", "AJR (norm)", "DL viol %", "untuned DL viol %"}, rows)
}

// Figure12Row is one source-cluster size's estimation errors.
type Figure12Row struct {
	SourceFraction float64 // 1.0, 0.5, 0.25
	// Errors are signed percentages for [best-effort latency,
	// deadline-driven latency, map utilization, reduce utilization].
	Errors [4]float64
	// MaxAbsError is the worst of the four.
	MaxAbsError float64
}

// Figure12Result is the resource-provisioning experiment (§8.2.4).
type Figure12Result struct {
	Rows []Figure12Row
}

// Figure12 estimates the SLOs of the full-size (100%) cluster using traces
// collected on 100%, 50%, and 25% clusters: each source run's observed
// schedule is harvested into a trace, statistical profiles are re-fitted
// from it, and the What-if Model predicts the full cluster's SLOs, which
// are compared against the measured ground truth.
func Figure12(seed int64) (*Figure12Result, error) {
	horizon := 6 * time.Hour
	fullCapacity := EC2Capacity
	profiles := TwoTenantProfiles(1.3)
	trace, err := workload.Generate(profiles, workload.GenerateOptions{Horizon: horizon, Seed: seed, Name: "fig12"})
	if err != nil {
		return nil, err
	}
	cfgFor := func(capacity int) cluster.Config {
		return scenario.ExpertTwoTenantConfig(capacity)
	}
	mapKind := workload.Map
	redKind := workload.Reduce
	templates := []qs.Template{
		{Queue: "besteffort", Metric: qs.AvgResponseTime},
		{Queue: "deadline", Metric: qs.AvgResponseTime},
		{Queue: "", Metric: qs.Utilization, TaskKind: &mapKind},
		{Queue: "", Metric: qs.Utilization, TaskKind: &redKind},
	}
	// Ground truth: the workload on the 100% cluster.
	truthSched, err := cluster.Run(trace, cfgFor(fullCapacity), cluster.Options{Horizon: horizon, Noise: cluster.DefaultNoise(seed + 17)})
	if err != nil {
		return nil, err
	}
	truth := qs.EvalStream(templates, truthSched, 0, truthSched.Horizon+time.Nanosecond)

	res := &Figure12Result{}
	for _, frac := range []float64{1.0, 0.5, 0.25} {
		srcCapacity := int(float64(fullCapacity) * frac)
		srcSched, err := cluster.Run(trace, cfgFor(srcCapacity), cluster.Options{Horizon: horizon, Noise: cluster.DefaultNoise(seed + 19)})
		if err != nil {
			return nil, err
		}
		harvested := ReconstructTrace(srcSched, fmt.Sprintf("harvest-%.0f%%", frac*100))
		fitted, err := workload.FitAll(harvested)
		if err != nil {
			return nil, err
		}
		model, err := whatif.FromProfiles(templates, fitted, horizon, seed+23, 2)
		if err != nil {
			return nil, err
		}
		model.Horizon = horizon
		model.Parallelism = Parallelism
		est, err := model.Evaluate(cfgFor(fullCapacity))
		if err != nil {
			return nil, err
		}
		row := Figure12Row{SourceFraction: frac}
		for i := range truth {
			if truth[i] != 0 {
				row.Errors[i] = (est[i] - truth[i]) / truth[i] * 100
			}
			if a := abs(row.Errors[i]); a > row.MaxAbsError {
				row.MaxAbsError = a
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Render prints the estimation-error bars.
func (r *Figure12Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%% nodes", row.SourceFraction*100),
			fmt.Sprintf("%+.1f", row.Errors[0]),
			fmt.Sprintf("%+.1f", row.Errors[1]),
			fmt.Sprintf("%+.1f", row.Errors[2]),
			fmt.Sprintf("%+.1f", row.Errors[3]),
			fmt.Sprintf("%.1f", row.MaxAbsError),
		})
	}
	return "Figure 12: SLO estimation error (%) predicting the 100% cluster from smaller-cluster traces\n" +
		table([]string{"source", "BE latency", "DL latency", "map util", "red util", "max |err|"}, rows)
}
