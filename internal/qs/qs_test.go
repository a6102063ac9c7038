package qs

import (
	"math"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/pald"
	"tempo/internal/workload"
)

// fixedSchedule builds a hand-crafted schedule for exact metric checks.
func fixedSchedule() *cluster.Schedule {
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }
	return &cluster.Schedule{
		Capacity: 10,
		Horizon:  sec(100),
		Jobs: []cluster.JobRecord{
			{ID: "a1", Tenant: "A", Submit: sec(0), Finish: sec(10), Completed: true},
			{ID: "a2", Tenant: "A", Submit: sec(10), Finish: sec(40), Completed: true},
			{ID: "a3", Tenant: "A", Submit: sec(90), Finish: sec(150), Completed: true}, // finishes outside [0,100)
			{ID: "b1", Tenant: "B", Submit: sec(0), Finish: sec(50), Deadline: sec(30), Completed: true},
			{ID: "b2", Tenant: "B", Submit: sec(0), Finish: sec(20), Deadline: sec(30), Completed: true},
			{ID: "b3", Tenant: "B", Submit: sec(5), Finish: sec(60), Completed: false}, // incomplete
		},
		Tasks: []cluster.TaskRecord{
			{JobID: "a1", Tenant: "A", Kind: workload.Map, Start: sec(0), End: sec(10), Outcome: cluster.TaskFinished},
			{JobID: "a2", Tenant: "A", Kind: workload.Reduce, Start: sec(10), End: sec(40), Outcome: cluster.TaskFinished},
			{JobID: "b1", Tenant: "B", Kind: workload.Map, Start: sec(0), End: sec(50), Outcome: cluster.TaskFinished},
			{JobID: "b1", Tenant: "B", Kind: workload.Map, Start: sec(0), End: sec(20), Outcome: cluster.TaskPreempted},
		},
	}
}

func TestAvgResponseTime(t *testing.T) {
	s := fixedSchedule()
	tpl := Template{Queue: "A", Metric: AvgResponseTime}
	// Jobs a1 (10s) and a2 (30s) are in-window; a3 finishes outside.
	got := tpl.Eval(s, 0, 100*time.Second)
	if math.Abs(got-20) > 1e-9 {
		t.Fatalf("AJR = %v, want 20", got)
	}
}

func TestAvgResponseTimeEmptySet(t *testing.T) {
	s := fixedSchedule()
	tpl := Template{Queue: "nobody", Metric: AvgResponseTime}
	if got := tpl.Eval(s, 0, 100*time.Second); got != 0 {
		t.Fatalf("empty AJR = %v, want 0", got)
	}
}

func TestDeadlineViolations(t *testing.T) {
	s := fixedSchedule()
	// b1: finish 50 > deadline 30 (+slack 0) → violated.
	// b2: finish 20 <= 30 → ok. b3 incomplete → excluded.
	tpl := Template{Queue: "B", Metric: DeadlineViolations}
	if got := tpl.Eval(s, 0, 100*time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("DL = %v, want 0.5", got)
	}
}

func TestDeadlineSlackForgives(t *testing.T) {
	s := fixedSchedule()
	// b1 duration 50s; slack 0.5 → limit 30 + 25 = 55 >= 50 → forgiven.
	tpl := Template{Queue: "B", Metric: DeadlineViolations, Slack: 0.5}
	if got := tpl.Eval(s, 0, 100*time.Second); got != 0 {
		t.Fatalf("DL with slack = %v, want 0", got)
	}
}

func TestDeadlineNoDeadlineJobs(t *testing.T) {
	s := fixedSchedule()
	tpl := Template{Queue: "A", Metric: DeadlineViolations}
	if got := tpl.Eval(s, 0, 100*time.Second); got != 0 {
		t.Fatalf("DL without deadlines = %v, want 0", got)
	}
}

func TestUtilization(t *testing.T) {
	s := fixedSchedule()
	// A used 10 + 30 = 40 container-seconds of 10×100 → 0.04 → QS −0.04.
	tpl := Template{Queue: "A", Metric: Utilization}
	if got := tpl.Eval(s, 0, 100*time.Second); math.Abs(got+0.04) > 1e-9 {
		t.Fatalf("UTIL = %v, want -0.04", got)
	}
}

func TestUtilizationEffectiveOnly(t *testing.T) {
	s := fixedSchedule()
	// B: finished 50s + preempted 20s = 70 cs raw; effective = 50 cs.
	raw := Template{Queue: "B", Metric: Utilization}
	eff := Template{Queue: "B", Metric: Utilization, EffectiveOnly: true}
	if got := raw.Eval(s, 0, 100*time.Second); math.Abs(got+0.07) > 1e-9 {
		t.Fatalf("raw UTIL = %v, want -0.07", got)
	}
	if got := eff.Eval(s, 0, 100*time.Second); math.Abs(got+0.05) > 1e-9 {
		t.Fatalf("effective UTIL = %v, want -0.05", got)
	}
}

func TestUtilizationByKind(t *testing.T) {
	s := fixedSchedule()
	k := workload.Reduce
	tpl := Template{Queue: "A", Metric: Utilization, TaskKind: &k}
	// Only a2's reduce: 30 cs / 1000 → -0.03.
	if got := tpl.Eval(s, 0, 100*time.Second); math.Abs(got+0.03) > 1e-9 {
		t.Fatalf("UTIL_RED = %v, want -0.03", got)
	}
}

func TestUtilizationClipsToWindow(t *testing.T) {
	s := fixedSchedule()
	tpl := Template{Queue: "A", Metric: Utilization}
	// Window [0,20): a1 contributes 10, a2 contributes 10 → 20/(10·20) = 0.1.
	if got := tpl.Eval(s, 0, 20*time.Second); math.Abs(got+0.1) > 1e-9 {
		t.Fatalf("clipped UTIL = %v, want -0.1", got)
	}
}

func TestThroughput(t *testing.T) {
	s := fixedSchedule()
	tpl := Template{Queue: "B", Metric: Throughput}
	if got := tpl.Eval(s, 0, 100*time.Second); got != -2 {
		t.Fatalf("THR = %v, want -2", got)
	}
}

func TestFairness(t *testing.T) {
	s := fixedSchedule()
	// Total usage = 40 + 70 = 110 cs; A's share = 40/110.
	tpl := Template{Queue: "A", Metric: Fairness, DesiredShare: 0.5}
	want := math.Abs(0.5 - 40.0/110.0)
	if got := tpl.Eval(s, 0, 100*time.Second); math.Abs(got-want) > 1e-9 {
		t.Fatalf("FAIR = %v, want %v", got, want)
	}
}

func TestFairnessNoUsage(t *testing.T) {
	s := &cluster.Schedule{Capacity: 10}
	tpl := Template{Queue: "A", Metric: Fairness, DesiredShare: 0.5}
	if got := tpl.Eval(s, 0, time.Minute); got != 0 {
		t.Fatalf("FAIR on empty = %v", got)
	}
}

func TestPriorityMultiplies(t *testing.T) {
	s := fixedSchedule()
	base := Template{Queue: "A", Metric: AvgResponseTime}
	weighted := Template{Queue: "A", Metric: AvgResponseTime, Priority: 3}
	b := base.Eval(s, 0, 100*time.Second)
	w := weighted.Eval(s, 0, 100*time.Second)
	if math.Abs(w-3*b) > 1e-9 {
		t.Fatalf("priority: %v vs 3×%v", w, b)
	}
}

func TestEvalAllOrder(t *testing.T) {
	s := fixedSchedule()
	tpls := []Template{
		{Queue: "A", Metric: AvgResponseTime},
		{Queue: "B", Metric: DeadlineViolations},
	}
	v := EvalAll(tpls, s, 0, 100*time.Second)
	if len(v) != 2 || math.Abs(v[0]-20) > 1e-9 || math.Abs(v[1]-0.5) > 1e-9 {
		t.Fatalf("EvalAll = %v", v)
	}
}

func TestTemplateValidate(t *testing.T) {
	good := Template{Queue: "A", Metric: AvgResponseTime}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Template{
		{Metric: AvgResponseTime},
		{Queue: "A", Metric: "nope"},
		{Queue: "A", Metric: DeadlineViolations, Slack: -1},
		{Queue: "A", Metric: AvgResponseTime, Priority: -2},
		{Queue: "A", Metric: Fairness, DesiredShare: 1.5},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTemplateName(t *testing.T) {
	k := workload.Reduce
	tpl := Template{Queue: "B", Metric: Utilization, TaskKind: &k}
	if got := tpl.Name(); got != "B/utilization_reduce" {
		t.Fatalf("Name = %q", got)
	}
}

func TestWithTarget(t *testing.T) {
	tpl := Template{Queue: "A", Metric: AvgResponseTime}.WithTarget(120)
	if !tpl.HasTarget || tpl.Target != 120 {
		t.Fatalf("WithTarget = %+v", tpl)
	}
}

func TestUnknownMetricEvalNaN(t *testing.T) {
	tpl := Template{Queue: "A", Metric: "bogus"}
	if got := tpl.Eval(fixedSchedule(), 0, time.Minute); !math.IsNaN(got) {
		t.Fatalf("bogus metric = %v, want NaN", got)
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 2}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{1, 2}, false}, // equal: not strict
		{[]float64{1, 3}, []float64{2, 2}, false}, // trade-off
		{[]float64{2, 2}, []float64{1, 2}, false},
		{[]float64{1}, []float64{1, 2}, false}, // length mismatch
	}
	for i, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("case %d: Dominates(%v, %v) = %v", i, c.a, c.b, got)
		}
	}
}

// maxRegret is pald.MaxRegret over the templates' targets: the largest
// constraint violation max_i (f_i − r_i) over templates that carry
// targets, or 0 if none do.
func maxRegret(templates []Template, values []float64) float64 {
	targets := make([]pald.Target, len(templates))
	for i, t := range templates {
		targets[i] = pald.Target{R: t.Target, Constrained: t.HasTarget}
	}
	return pald.MaxRegret(values, targets)
}

func TestMaxRegret(t *testing.T) {
	tpls := []Template{
		Template{Queue: "A", Metric: AvgResponseTime}.WithTarget(10),
		Template{Queue: "B", Metric: DeadlineViolations}.WithTarget(0.05),
		{Queue: "C", Metric: Throughput}, // no target
	}
	vals := []float64{15, 0.02, -3}
	if got := maxRegret(tpls, vals); math.Abs(got-5) > 1e-9 {
		t.Fatalf("maxRegret = %v, want 5", got)
	}
	if got := maxRegret(tpls, []float64{5, 0.01, -9}); got != 0 {
		t.Fatalf("satisfied maxRegret = %v, want 0", got)
	}
}

// Integration: QS metrics on a real simulated schedule behave sensibly —
// more capacity can only improve response time.
func TestIntegrationMoreCapacityLowersAJR(t *testing.T) {
	tr, err := workload.Generate(
		[]workload.TenantProfile{workload.BestEffort("A", 2)},
		workload.GenerateOptions{Horizon: 2 * time.Hour, Seed: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(capacity int) float64 {
		s, err := cluster.Predict(tr, cluster.Config{
			TotalContainers: capacity,
			Tenants:         map[string]cluster.TenantConfig{"A": {Weight: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		tpl := Template{Queue: "A", Metric: AvgResponseTime}
		return tpl.Eval(s, 0, s.Horizon+time.Hour)
	}
	small, big := eval(10), eval(80)
	if big >= small {
		t.Fatalf("AJR with 80 containers (%v) should beat 10 containers (%v)", big, small)
	}
}
