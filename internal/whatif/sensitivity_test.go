package whatif

import (
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

func TestSensitivityMeanAndSpread(t *testing.T) {
	m, err := FromProfiles(testTemplates(),
		[]workload.TenantProfile{workload.BestEffort("A", 1)},
		time.Hour, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	mean, stddev, err := m.Sensitivity(cfg)
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
	m.Traces = m.Traces[:1]
	if _, _, err := m.Sensitivity(cfg); err == nil {
		t.Fatal("one sample accepted")
	}
}

func TestSensitivityZeroSpreadOnFixedTrace(t *testing.T) {
	tr := testTrace(t)
	m, err := New(testTemplates(), []*workload.Trace{tr, tr, tr})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	_, stddev, err := m.Sensitivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stddev {
		if s > 1e-9 {
			t.Fatalf("objective %d spread %v on a fixed trace", i, s)
		}
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
	now, err := FromProfiles(templates, []workload.TenantProfile{p}, time.Hour, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := FromProfiles(templates, []workload.TenantProfile{p.Grow(1.3)}, time.Hour, 5, 1)
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
