package core

import (
	"math"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/pald"
	"tempo/internal/qs"
	"tempo/internal/whatif"
	"tempo/internal/workload"
)

// cannedSchedule yields QS values [DL fraction, AJR seconds] =
// [violations/total, mean response], letting tests drive the controller
// with exact QS values.
func cannedSchedule(capacity int, responses []time.Duration, deadlines []time.Duration) *cluster.Schedule {
	s := &cluster.Schedule{Capacity: capacity, Horizon: time.Hour, TenantNames: []string{"T"}}
	for i, r := range responses {
		var dl time.Duration
		if i < len(deadlines) {
			dl = deadlines[i]
		}
		s.Jobs = append(s.Jobs, cluster.JobRecord{
			ID: "j" + string(rune('a'+i)), Tenant: 0,
			Submit: 0, Finish: r, Deadline: dl, Completed: true,
		})
	}
	return s
}

func normController(t *testing.T) *Controller {
	t.Helper()
	templates := []qs.Template{
		qs.Template{Queue: "T", Metric: qs.DeadlineViolations}.WithTarget(0.1),
		{Queue: "T", Metric: qs.AvgResponseTime},
	}
	trace := &workload.Trace{Name: "tiny", Horizon: time.Minute, Jobs: []workload.JobSpec{
		workload.NewMapReduceJob("x", "T", 0, []time.Duration{time.Second}, nil),
	}}
	model, err := whatif.FromTrace(templates, trace)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(Config{
		Space:      cluster.DefaultSpace(10, []string{"T"}),
		Templates:  templates,
		Model:      model,
		Candidates: 2,
		PALD:       pald.Options{Seed: 1},
	}, cluster.Config{TotalContainers: 10, Tenants: map[string]cluster.TenantConfig{"T": {Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func TestScalesFrozenAtFirstObservation(t *testing.T) {
	// Responses: 100s and 300s → AJR 200; one of two deadline jobs missed
	// → DL 0.5.
	sched := cannedSchedule(10,
		[]time.Duration{100 * time.Second, 300 * time.Second},
		[]time.Duration{time.Second, 20 * time.Minute})
	ctl := normController(t)
	if _, err := ctl.Apply(sched); err != nil {
		t.Fatal(err)
	}
	if ctl.scales == nil {
		t.Fatal("scales not initialized")
	}
	// Scale for DL = max(|0.5|, |target 0.1|) = 0.5; for AJR = 200.
	if math.Abs(ctl.scales[0]-0.5) > 1e-9 {
		t.Fatalf("DL scale = %v, want 0.5", ctl.scales[0])
	}
	if math.Abs(ctl.scales[1]-200) > 1e-9 {
		t.Fatalf("AJR scale = %v, want 200", ctl.scales[1])
	}
	first := append([]float64(nil), ctl.scales...)
	if _, err := ctl.Apply(sched); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if ctl.scales[i] != first[i] {
			t.Fatal("scales drifted after first observation")
		}
	}
}

func TestNormalizeDividesByScales(t *testing.T) {
	ctl := normController(t)
	ctl.scales = []float64{0.5, 200}
	got := ctl.normalize([]float64{0.25, 100})
	if math.Abs(got[0]-0.5) > 1e-12 || math.Abs(got[1]-0.5) > 1e-12 {
		t.Fatalf("normalized = %v, want [0.5 0.5]", got)
	}
	// nil scales pass through.
	ctl.scales = nil
	raw := []float64{1, 2}
	if got := ctl.normalize(raw); got[0] != 1 || got[1] != 2 {
		t.Fatalf("passthrough = %v", got)
	}
}

func TestNormalizedTargetsScaleR(t *testing.T) {
	ctl := normController(t)
	ctl.scales = []float64{0.5, 200}
	ctl.targets = []pald.Target{{R: 0.1, Constrained: true}, {R: 100, Constrained: true}}
	nt := ctl.normalizedTargets()
	if math.Abs(nt[0].R-0.2) > 1e-12 {
		t.Fatalf("normalized DL target = %v, want 0.2", nt[0].R)
	}
	if math.Abs(nt[1].R-0.5) > 1e-12 {
		t.Fatalf("normalized AJR target = %v, want 0.5", nt[1].R)
	}
	// Unconstrained targets pass through untouched.
	ctl.targets[1].Constrained = false
	if got := ctl.normalizedTargets()[1].R; got != 100 {
		t.Fatalf("unconstrained R modified: %v", got)
	}
}

// TestMixedUnitRegressionGuard reproduces the bug the normalization fixed:
// a small deadline regression (fractions) must not be drowned out by a
// larger-looking but proportionally tiny AJR improvement (seconds).
func TestMixedUnitRegressionGuard(t *testing.T) {
	ctl := normController(t)
	ctl.scales = []float64{0.1, 600} // typical magnitudes
	ctl.targets = []pald.Target{{R: 0, Constrained: true}, {R: 600, Constrained: true}}
	prev := []float64{0.05, 600} // 5% deadline misses, AJR 600s
	next := []float64{0.30, 550} // deadlines 6× worse, AJR 50s better
	ctl.prevObserved = prev
	ctl.hasPrev = true
	if !ctl.shouldRevert(next) {
		t.Fatal("guard failed to catch the deadline regression hidden behind an AJR gain")
	}
	// Without normalization the raw regret comparison would prefer `next`
	// (regret 550-600<0 vs ... dominated by seconds); sanity-check that
	// the un-normalized ordering indeed gets it wrong, proving the test
	// bites.
	rawTargets := []pald.Target{{R: 0, Constrained: true}, {R: 600, Constrained: true}}
	if pald.Better(prev, next, rawTargets, nil, 0.5) {
		t.Skip("raw ordering happens to agree; scenario no longer discriminating")
	}
}
