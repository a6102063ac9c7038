package exp

import (
	"time"

	"tempo/internal/scenario"
)

// This file expresses the end-to-end experiment setups (§8.2) as
// declarative scenario specs. Every control-loop experiment (Figures 6, 9
// and 11, the strategy and guard ablations) builds its controller through
// scenario.Build; none wires one by hand.

// TwoTenantSpec is the §8.2.1 convergence scenario: a Cloudera-like
// deadline tenant with a hard QS_DL constraint plus a Facebook-like
// best-effort tenant whose QS_AJR the loop ratchets, replaying one fixed
// workload trace each control interval with fresh noise, starting from the
// skewed expert configuration.
func TwoTenantSpec(seed int64, slack float64, interval time.Duration, iterations int) *scenario.Spec {
	target := 0.0
	return &scenario.Spec{
		Name:            "two-tenant-replay",
		Description:     "§8.2.1 convergence: deadline SLO constrained, best-effort AJR ratcheted, fixed trace replayed with fresh noise",
		Seed:            seed,
		Capacity:        loopCapacity,
		IntervalMinutes: interval.Minutes(),
		Iterations:      iterations,
		Replay:          true,
		Noise:           &scenario.NoiseSpec{},
		Tenants:         EC2Mix(loopScale),
		SLOs: []scenario.SLOSpec{
			{Queue: "deadline", Metric: "deadline_violations", Slack: slack, Target: &target},
			{Queue: "besteffort", Metric: "avg_response_time"},
		},
		Initial:    scenario.InitialSpec{Preset: "expert-two-tenant"},
		Controller: scenario.ControllerSpec{Candidates: 5, MaxStep: 0.2},
	}
}

// figure9Spec is the §8.2.2 utilization scenario: a deadline tenant plus a
// best-effort tenant with long reduce tasks, the preemption victims the
// paper reports (23% of reduce tasks preempted, mostly best-effort),
// replayed from the badly tuned "hair-trigger" expert configuration. Its
// SLOs are the deadline fraction, the best-effort response time and the
// map and reduce effective utilizations; Figure9 sets the targets of all
// but the response time from a probe run.
func figure9Spec(seed int64, iterations int) *scenario.Spec {
	return &scenario.Spec{
		Name:            "figure9-utilization",
		Description:     "§8.2.2 utilization: preemption-prone mix, effective-utilization SLOs held at the expert level",
		Seed:            seed,
		Capacity:        loopCapacity,
		IntervalMinutes: 120,
		Iterations:      iterations,
		Replay:          true,
		Noise:           &scenario.NoiseSpec{},
		Tenants: []scenario.TenantSpec{
			EC2Mix(2.2)[0],
			{Name: "besteffort", Profile: "best-effort", Scale: 1.6},
		},
		SLOs: []scenario.SLOSpec{
			{Queue: "deadline", Metric: "deadline_violations", Slack: 0.25},
			{Queue: "besteffort", Metric: "avg_response_time"},
			{Metric: "utilization", TaskKind: "map", EffectiveOnly: true},
			{Metric: "utilization", TaskKind: "reduce", EffectiveOnly: true},
		},
		Initial:    scenario.InitialSpec{Preset: "hair-trigger"},
		Controller: scenario.ControllerSpec{Candidates: 5, MaxStep: 0.2},
	}
}

// figure11Spec is the §8.2.3 drift scenario at one control-interval
// length: the EC2 pair with diurnally drifting arrival rates, one
// eight-hour trace played in consecutive windows.
func figure11Spec(seed int64, interval time.Duration) *scenario.Spec {
	target := 0.0
	tenants := EC2Mix(loopScale)
	for i := range tenants {
		tenants[i].Arrival = []scenario.ArrivalSpec{{Kind: "diurnal", Night: 0.4, Weekend: 1}}
	}
	return &scenario.Spec{
		Name:            "figure11-drift",
		Description:     "§8.2.3 adaptivity: diurnal drift played in consecutive windows of one interval length",
		Seed:            seed,
		Capacity:        loopCapacity,
		IntervalMinutes: interval.Minutes(),
		Iterations:      int(8 * time.Hour / interval),
		Noise:           &scenario.NoiseSpec{},
		Tenants:         tenants,
		SLOs: []scenario.SLOSpec{
			{Queue: "deadline", Metric: "deadline_violations", Slack: 0.25, Target: &target},
			{Queue: "besteffort", Metric: "avg_response_time"},
		},
		Initial:    scenario.InitialSpec{Preset: "expert-two-tenant"},
		Controller: scenario.ControllerSpec{Candidates: 5, MaxStep: 0.25},
	}
}
