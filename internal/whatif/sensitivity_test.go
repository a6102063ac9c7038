package whatif

import (
	"errors"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

func TestSensitivityMeanAndSpread(t *testing.T) {
	m, err := FromProfiles(testTemplates(),
		[]workload.TenantProfile{workload.BestEffort("A", 1)},
		time.Hour, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	mean, stddev, err := m.Sensitivity(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(mean) != 2 || len(stddev) != 2 {
		t.Fatalf("lengths = %d, %d", len(mean), len(stddev))
	}
	if mean[0] <= 0 {
		t.Fatalf("mean AJR = %v", mean[0])
	}
	// Different workload draws must produce visible spread.
	if stddev[0] <= 0 {
		t.Fatalf("AJR stddev = %v; distinct draws should differ", stddev[0])
	}
	if _, _, err := m.Sensitivity(cfg, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestSensitivityZeroSpreadOnFixedTrace(t *testing.T) {
	m, err := FromTrace(testTemplates(), testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	_, stddev, err := m.Sensitivity(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stddev {
		if s > 1e-9 {
			t.Fatalf("objective %d spread %v on a fixed trace", i, s)
		}
	}
}

func TestCustomPredictorPluggable(t *testing.T) {
	calls := 0
	fake := func(trace *workload.Trace, cfg cluster.Config, horizon time.Duration) (*cluster.Schedule, error) {
		calls++
		// An "external simulator" that claims every job completes at
		// submit + 42s.
		s := &cluster.Schedule{Capacity: cfg.TotalContainers, Horizon: time.Hour}
		for i := range trace.Jobs {
			j := &trace.Jobs[i]
			s.Jobs = append(s.Jobs, cluster.JobRecord{
				ID: j.ID, Tenant: s.AddTenant(j.Tenant),
				Submit: j.Submit, Finish: j.Submit + 42*time.Second, Completed: true,
			})
		}
		return s, nil
	}
	m, err := FromTrace([]qs.Template{{Queue: "A", Metric: qs.AvgResponseTime}}, testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	m.Predict = fake
	v, err := m.Evaluate(cluster.Config{TotalContainers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("predictor called %d times", calls)
	}
	if v[0] != 42 {
		t.Fatalf("AJR through custom predictor = %v, want 42", v[0])
	}
	// Errors from the adapter propagate.
	boom := errors.New("sim down")
	m.Predict = func(*workload.Trace, cluster.Config, time.Duration) (*cluster.Schedule, error) {
		return nil, boom
	}
	if _, err := m.Evaluate(cluster.Config{TotalContainers: 5}); !errors.Is(err, boom) {
		t.Fatalf("adapter error lost: %v", err)
	}
	if _, _, err := m.Sensitivity(cluster.Config{TotalContainers: 5}, 2); !errors.Is(err, boom) {
		t.Fatalf("adapter error lost in sensitivity: %v", err)
	}
}

func TestGrowScalesJobSizes(t *testing.T) {
	p := workload.TenantProfile{
		Name:        "T",
		JobsPerHour: 30,
		NumMaps:     workload.Constant(10),
		NumReduces:  workload.Constant(4),
		MapSeconds:  workload.Constant(30),
	}
	p.ReduceSeconds = workload.Constant(60)
	grown := p.Grow(1.3)
	if got := grown.NumMaps.Mean(); got != 13 {
		t.Fatalf("grown maps mean = %v, want 13", got)
	}
	// Reduce counts grow with sqrt(factor).
	want := 4 * 1.1401
	if got := grown.NumReduces.Mean(); got < want-0.01 || got > want+0.01 {
		t.Fatalf("grown reduces mean = %v, want ≈ %v", got, want)
	}
	// Durations untouched.
	if grown.MapSeconds.Mean() != 30 {
		t.Fatal("durations should not scale")
	}
	// Non-positive factor is identity.
	if p.Grow(0).NumMaps.Mean() != 10 {
		t.Fatal("factor 0 not defaulted")
	}
	// Grown profiles still generate valid traces with more tasks.
	base, err := workload.Generate([]workload.TenantProfile{p}, workload.GenerateOptions{Horizon: 4 * time.Hour, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	big, err := workload.Generate([]workload.TenantProfile{grown}, workload.GenerateOptions{Horizon: 4 * time.Hour, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if big.TaskCount() <= base.TaskCount() {
		t.Fatalf("grown trace tasks %d <= base %d", big.TaskCount(), base.TaskCount())
	}
}

// TestGrowthWhatIf ties it together: predicted response times under 30%
// data growth must be no better than under the current workload.
func TestGrowthWhatIf(t *testing.T) {
	p := workload.BestEffort("A", 2)
	templates := []qs.Template{{Queue: "A", Metric: qs.AvgResponseTime}}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	now, err := FromProfiles(templates, []workload.TenantProfile{p}, time.Hour, 5)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := FromProfiles(templates, []workload.TenantProfile{p.Grow(1.3)}, time.Hour, 5)
	if err != nil {
		t.Fatal(err)
	}
	vNow, err := now.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vGrown, err := grown.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vGrown[0] < vNow[0] {
		t.Fatalf("30%% growth improved AJR: %v -> %v", vNow[0], vGrown[0])
	}
}
