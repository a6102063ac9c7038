package whatif

import (
	"strings"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

func testTemplates() []qs.Template {
	return []qs.Template{
		{Queue: "A", Metric: qs.AvgResponseTime},
		{Queue: "A", Metric: qs.Utilization},
	}
}

func testTrace(t *testing.T) *workload.Trace {
	t.Helper()
	tr, err := workload.Generate(
		[]workload.TenantProfile{workload.BestEffort("A", 1)},
		workload.GenerateOptions{Horizon: time.Hour, Seed: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFromTraceEvaluate(t *testing.T) {
	m, err := FromTrace(testTemplates(), testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	v, err := m.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 2 {
		t.Fatalf("QS vector length %d", len(v))
	}
	if v[0] <= 0 {
		t.Fatalf("AJR = %v, want positive", v[0])
	}
	if v[1] >= 0 {
		t.Fatalf("UTIL = %v, want negative", v[1])
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	m, err := FromTrace(testTemplates(), testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	a, _ := m.Evaluate(cfg)
	b, _ := m.Evaluate(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic evaluation: %v vs %v", a, b)
		}
	}
}

func TestEvaluateRespondsToCapacity(t *testing.T) {
	m, err := FromTrace(testTemplates(), testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	small, _ := m.Evaluate(cluster.Config{TotalContainers: 5, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}})
	big, _ := m.Evaluate(cluster.Config{TotalContainers: 60, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}})
	if big[0] >= small[0] {
		t.Fatalf("AJR should improve with capacity: %v vs %v", big[0], small[0])
	}
}

func TestFromProfilesAveragesSamples(t *testing.T) {
	m, err := FromProfiles(testTemplates(),
		[]workload.TenantProfile{workload.BestEffort("A", 1)},
		time.Hour, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	four, err := m.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Traces = m.Traces[:1]
	one, err := m.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Averaging over different draws should generally move the value.
	if one[0] == four[0] {
		t.Log("averaged value equals single sample; suspicious but not fatal")
	}
	if four[0] <= 0 {
		t.Fatalf("averaged AJR = %v", four[0])
	}
}

// TestNewValidation: New rejects missing or invalid templates and
// FromTrace a nil trace; a model whose Traces are empty or hold a nil
// trace is rejected when it scores, by every entry point.
func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("empty templates accepted")
	}
	bad := []qs.Template{{Queue: "", Metric: qs.AvgResponseTime}}
	if _, err := New(bad, nil); err == nil {
		t.Fatal("invalid template accepted")
	}
	if _, err := FromTrace(testTemplates(), nil); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := FromProfiles(testTemplates(), []workload.TenantProfile{workload.BestEffort("A", 1)}, time.Hour, 1, 0); err == nil {
		t.Fatal("zero samples drawn")
	}
	m, err := New(testTemplates(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	for _, tc := range []struct {
		traces []*workload.Trace
		want   string
	}{
		{nil, "whatif: no sample traces"},
		{[]*workload.Trace{}, "whatif: no sample traces"},
		{[]*workload.Trace{testTrace(t), nil}, "whatif: sample 1: nil trace"},
	} {
		m.Traces = tc.traces
		_, errBatch := m.EvaluateBatch([]cluster.Config{cfg})
		_, _, _, errSearch := m.EvaluateSearch([]cluster.Config{cfg})
		for _, err := range []error{errBatch, errSearch} {
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%d traces: error %v, want %q", len(tc.traces), err, tc.want)
			}
		}
	}
}

func TestEvaluatePropagatesErrors(t *testing.T) {
	// Bad config surfaces the cluster error.
	m, _ := FromTrace(testTemplates(), testTrace(t))
	if _, err := m.Evaluate(cluster.Config{TotalContainers: 0}); err == nil {
		t.Fatal("invalid config accepted")
	}
	// A trace the predictor rejects surfaces its error, naming the sample.
	broken := *testTrace(t)
	broken.Jobs = append([]workload.JobSpec(nil), broken.Jobs...)
	broken.Jobs[0].Submit = -time.Second
	m.Traces = append(m.Traces, &broken)
	if _, err := m.Evaluate(cluster.Config{TotalContainers: 20}); err == nil || !strings.Contains(err.Error(), "predicting sample 1") {
		t.Fatalf("invalid trace: error %v, want it to name sample 1", err)
	}
}

func TestHorizonCapsPrediction(t *testing.T) {
	m, err := FromTrace(testTemplates(), testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	m.Horizon = 10 * time.Minute
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	v, err := m.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 2 {
		t.Fatal("vector length")
	}
}
