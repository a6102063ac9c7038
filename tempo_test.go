package tempo

import (
	"testing"
	"time"
)

// TestPublicAPIEndToEnd exercises the facade exactly as the README's
// quickstart does: declare SLOs, build a space and what-if model, observe
// each interval and apply it, verify improvement plumbing works.
func TestPublicAPIEndToEnd(t *testing.T) {
	profiles := []TenantProfile{
		func() TenantProfile {
			p := CompanyABC(0.5)[5] // ETL (deadline-driven)
			return p
		}(),
		CompanyABC(0.5)[0], // BI (best-effort)
	}
	trace, err := Generate(profiles, GenerateOptions{Horizon: 30 * time.Minute, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	templates := []Template{
		Template{Queue: "ETL", Metric: DeadlineViolations, Slack: 0.25}.WithTarget(0.05),
		{Queue: "BI", Metric: AvgResponseTime},
	}
	model, err := NewWhatIfFromTrace(templates, trace)
	if err != nil {
		t.Fatal(err)
	}
	model.Horizon = 30 * time.Minute
	initial := ClusterConfig{
		TotalContainers: 30,
		Tenants: map[string]TenantConfig{
			"ETL": {Weight: 3, MinShare: 10, MinSharePreemptTimeout: time.Minute},
			"BI":  {Weight: 1, MaxShare: 8},
		},
	}
	ctl, err := NewController(ControllerConfig{
		Space:      DefaultSpace(30, []string{"ETL", "BI"}),
		Templates:  templates,
		Model:      model,
		Candidates: 3,
	}, initial)
	if err != nil {
		t.Fatal(err)
	}
	history := replay(t, ctl, trace, 30*time.Minute, 2, 3)
	if len(history) != 3 {
		t.Fatalf("history = %d", len(history))
	}
	for _, it := range history {
		if len(it.Observed) != 2 {
			t.Fatalf("observed = %v", it.Observed)
		}
	}
	cfg := ctl.Current()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// replay drives n control intervals: each replays trace under the
// controller's current configuration with fresh noise seeded from seed,
// and Applies the schedule. It returns the iterations, oldest first.
func replay(t *testing.T, ctl *Controller, trace *Trace, interval time.Duration, seed int64, n int) []Iteration {
	t.Helper()
	out := make([]Iteration, 0, n)
	for i := 0; i < n; i++ {
		sched, err := Run(trace, ctl.Current(), RunOptions{Horizon: interval, Noise: DefaultNoise(seed + int64(i)*3571)})
		if err != nil {
			t.Fatal(err)
		}
		it, err := ctl.Apply(sched)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, it)
	}
	return out
}

func TestPublicSimulationHelpers(t *testing.T) {
	trace, err := Generate(CompanyABC(0.3), GenerateOptions{Horizon: time.Hour, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{TotalContainers: 40, Tenants: map[string]TenantConfig{}}
	sched, err := Predict(trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Jobs) != len(trace.Jobs) {
		t.Fatalf("jobs %d vs %d", len(sched.Jobs), len(trace.Jobs))
	}
	noisy, err := Run(trace, cfg, RunOptions{Noise: DefaultNoise(4), Horizon: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	templates := []Template{{Queue: "BI", Metric: AvgResponseTime}}
	v := Evaluate(templates, noisy, 0, noisy.Horizon)
	if len(v) != 1 {
		t.Fatalf("QS vector = %v", v)
	}
}

// TestDecomposedControlLoop ties the §10 extension to the control loop:
// decompose a mixed tenant, split its RM entry, attach per-class SLOs, and
// run the controller over the decomposed space.
func TestDecomposedControlLoop(t *testing.T) {
	mixed := TenantProfile{
		Name:        "analytics",
		JobsPerHour: 60,
		NumMaps: Mixture{
			Weights:    []float64{0.8, 0.2},
			Components: []Dist{Constant(2), Constant(60)},
		},
		MapSeconds: Mixture{
			Weights:    []float64{0.8, 0.2},
			Components: []Dist{Constant(10), Constant(120)},
		},
	}
	trace, err := Generate([]TenantProfile{mixed}, GenerateOptions{Horizon: time.Hour, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	decomposed, dec, err := DecomposeTenant(trace, "analytics", 2)
	if err != nil {
		t.Fatal(err)
	}
	base := ClusterConfig{TotalContainers: 24, Tenants: map[string]TenantConfig{"analytics": {Weight: 1}}}
	split := base.WithSubTenants("analytics", dec.SubTenants)
	templates := []Template{
		{Queue: dec.SubTenants[0], Metric: AvgResponseTime}, // small class
		{Queue: dec.SubTenants[1], Metric: AvgResponseTime}, // large class
	}
	model, err := NewWhatIfFromTrace(templates, decomposed)
	if err != nil {
		t.Fatal(err)
	}
	model.Horizon = time.Hour
	ctl, err := NewController(ControllerConfig{
		Space:      DefaultSpace(24, dec.SubTenants),
		Templates:  templates,
		Model:      model,
		Candidates: 3,
	}, split)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range replay(t, ctl, decomposed, time.Hour, 4, 3) {
		if len(it.Observed) != 2 {
			t.Fatalf("observed = %v", it.Observed)
		}
		if it.Observed[0] <= 0 || it.Observed[1] <= 0 {
			t.Fatalf("sub-queue SLOs not measured: %v", it.Observed)
		}
	}
	final := ctl.Current()
	if err := final.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := final.Tenants[dec.SubTenants[0]]; !ok {
		t.Fatal("sub-tenant lost from tuned configuration")
	}
}

func TestPublicConstantsWired(t *testing.T) {
	if Map == Reduce {
		t.Fatal("task kinds collide")
	}
	kinds := []MetricKind{AvgResponseTime, DeadlineViolations, Utilization, Throughput, Fairness}
	for _, k := range kinds {
		if !k.Valid() {
			t.Fatalf("metric %q invalid", k)
		}
	}
	if RevertOnWorse == RevertOff || RevertOnNonDominance == RevertOnWorse {
		t.Fatal("revert policies collide")
	}
}
