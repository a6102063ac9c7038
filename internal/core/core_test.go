package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/pald"
	"tempo/internal/qs"
	"tempo/internal/whatif"
	"tempo/internal/workload"
)

// twoTenantSetup builds the canonical §8.2.1 scenario: a deadline-driven
// tenant and a best-effort tenant on an overcommitted cluster, starting
// from a deliberately skewed "expert" configuration.
func twoTenantSetup(t *testing.T, seed int64) (Config, cluster.Config) {
	t.Helper()
	profiles := []workload.TenantProfile{
		workload.DeadlineDriven("prod", 1.2),
		workload.BestEffort("adhoc", 1.2),
	}
	capacity := 40
	space := cluster.DefaultSpace(capacity, []string{"prod", "adhoc"})
	templates := []qs.Template{
		qs.Template{Queue: "prod", Metric: qs.DeadlineViolations, Slack: 0.25}.WithTarget(0.05),
		{Queue: "adhoc", Metric: qs.AvgResponseTime},
	}
	model, err := whatif.FromProfiles(templates, profiles, time.Hour, seed+500)
	if err != nil {
		t.Fatal(err)
	}
	env := &EmulatedCluster{Profiles: profiles, Noise: cluster.DefaultNoise(seed), Seed: seed}
	cfg := Config{
		Space:       space,
		Templates:   templates,
		Model:       model,
		Environment: env,
		Interval:    time.Hour,
		Candidates:  4,
		PALD:        pald.Options{Seed: seed, MaxStep: 0.2},
	}
	// A skewed expert config: best-effort tenant starved, huge preemption
	// exposure for prod.
	initial := cluster.Config{TotalContainers: capacity, Tenants: map[string]cluster.TenantConfig{
		"prod":  {Weight: 4, MinShare: 20, MaxShare: 40, MinSharePreemptTimeout: 20 * time.Second, SharePreemptTimeout: time.Minute},
		"adhoc": {Weight: 0.5, MaxShare: 10},
	}}
	return cfg, initial
}

func TestNewControllerValidation(t *testing.T) {
	cfg, initial := twoTenantSetup(t, 1)
	if _, err := NewController(cfg, initial); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Space = nil
	if _, err := NewController(bad, initial); err == nil {
		t.Fatal("nil space accepted")
	}
	bad = cfg
	bad.Templates = nil
	if _, err := NewController(bad, initial); err == nil {
		t.Fatal("no templates accepted")
	}
	bad = cfg
	bad.Model = nil
	if _, err := NewController(bad, initial); err == nil {
		t.Fatal("nil model accepted")
	}
	bad = cfg
	bad.Environment = nil
	if _, err := NewController(bad, initial); err == nil {
		t.Fatal("nil environment accepted")
	}
	if _, err := NewController(cfg, cluster.Config{}); err == nil {
		t.Fatal("invalid initial config accepted")
	}
}

func TestControllerDefaults(t *testing.T) {
	cfg, initial := twoTenantSetup(t, 2)
	cfg.Interval = 0
	cfg.Candidates = 0
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.Interval != 30*time.Minute || c.cfg.Candidates != 5 {
		t.Fatalf("defaults not applied: %v, %v", c.cfg.Interval, c.cfg.Candidates)
	}
}

func TestStepRecordsIteration(t *testing.T) {
	cfg, initial := twoTenantSetup(t, 3)
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	it, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if it.Index != 0 {
		t.Fatalf("index = %d", it.Index)
	}
	if len(it.Observed) != 2 {
		t.Fatalf("observed = %v", it.Observed)
	}
	if it, err := c.Step(); err != nil || it.Index != 1 {
		t.Fatalf("second step = index %d, %v; want index 1", it.Index, err)
	}
}

func TestTargetsRatchetForBestEffort(t *testing.T) {
	cfg, initial := twoTenantSetup(t, 4)
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	targets := c.Targets()
	if !targets[0].Constrained || targets[0].R != 0.05 {
		t.Fatalf("fixed target lost: %+v", targets[0])
	}
	if !targets[1].Constrained {
		t.Fatal("best-effort target not ratcheted")
	}
	first := targets[1].R
	for i := 0; i < 3; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Targets()[1].R; got > first+1e-9 {
		t.Fatalf("ratchet went backwards: %v -> %v", first, got)
	}
}

// TestControlLoopImprovesBestEffortLatency is the headline end-to-end
// check: starting from a skewed expert configuration, a handful of
// iterations must reduce the best-effort tenant's average response time
// without breaking the deadline SLO — the shape of Figure 6.
func TestControlLoopImprovesBestEffortLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end control loop is slow")
	}
	cfg, initial := twoTenantSetup(t, 5)
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	history, err := c.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	imp := improvement(history, 1)
	if imp < 0.1 {
		t.Fatalf("best-effort AJR improvement = %.1f%%, want >= 10%%", imp*100)
	}
	// Deadline violations in the final quarter must stay near the target.
	tail := history[9:]
	var dl float64
	for _, it := range tail {
		dl += it.Observed[0]
	}
	dl /= float64(len(tail))
	if dl > 0.30 {
		t.Fatalf("final deadline violations = %.2f, want bounded", dl)
	}
}

func TestRevertGuardRollsBack(t *testing.T) {
	cfg, initial := twoTenantSetup(t, 6)
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	// Force a previous observation that is strictly better than anything
	// achievable, so the guard must fire on the next step.
	c.hasPrev = true
	c.prevObserved = []float64{-1, -1}
	c.prevConfig = initial.Clone()
	it, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !it.Reverted {
		t.Fatal("guard did not revert")
	}
}

func TestRevertOffNeverReverts(t *testing.T) {
	cfg, initial := twoTenantSetup(t, 7)
	cfg.Revert = RevertOff
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	c.hasPrev = true
	c.prevObserved = []float64{-1, -1}
	c.prevConfig = initial.Clone()
	it, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if it.Reverted {
		t.Fatal("RevertOff still reverted")
	}
}

func TestRevertOnNonDominancePolicy(t *testing.T) {
	cfg, initial := twoTenantSetup(t, 8)
	cfg.Revert = RevertOnNonDominance
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	c.hasPrev = true
	c.prevObserved = []float64{1e9, 1e9} // everything dominates this
	c.prevConfig = initial.Clone()
	it, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if it.Reverted {
		t.Fatal("dominating observation should not revert")
	}
}

func TestEnvironmentErrorPropagates(t *testing.T) {
	cfg, initial := twoTenantSetup(t, 9)
	boom := errors.New("boom")
	cfg.Environment = envFunc(func(cluster.Config, time.Duration, int) (*cluster.Schedule, error) {
		return nil, boom
	})
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

type envFunc func(cluster.Config, time.Duration, int) (*cluster.Schedule, error)

func (f envFunc) Observe(cfg cluster.Config, interval time.Duration, iter int) (*cluster.Schedule, error) {
	return f(cfg, interval, iter)
}

func TestTraceEnvironmentWindows(t *testing.T) {
	tr, err := workload.Generate([]workload.TenantProfile{workload.BestEffort("A", 2)},
		workload.GenerateOptions{Horizon: 3 * time.Hour, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	env := &TraceEnvironment{Trace: tr}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	s0, err := env.Observe(cfg, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := env.Observe(cfg, time.Hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	want0 := len(tr.Window(0, time.Hour).Jobs)
	want1 := len(tr.Window(time.Hour, 2*time.Hour).Jobs)
	if len(s0.Jobs) != want0 || len(s1.Jobs) != want1 {
		t.Fatalf("window job counts %d/%d, want %d/%d", len(s0.Jobs), len(s1.Jobs), want0, want1)
	}
}

func TestEmulatedClusterDifferentIterationsDiffer(t *testing.T) {
	env := &EmulatedCluster{
		Profiles: []workload.TenantProfile{workload.BestEffort("A", 2)},
		Seed:     11,
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	s0, err := env.Observe(cfg, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := env.Observe(cfg, time.Hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s0.Jobs) == len(s1.Jobs) && len(s0.Tasks) == len(s1.Tasks) {
		same := true
		for i := range s0.Jobs {
			if s0.Jobs[i].Submit != s1.Jobs[i].Submit {
				same = false
				break
			}
		}
		if same {
			t.Fatal("iterations produced identical workloads")
		}
	}
}

// improvement is scenario.Summary.Improvement over iterations: the
// relative change from the first observation to the mean of the last
// quarter (positive = QS reduced), 0 when the first is ~zero.
func improvement(iters []Iteration, objective int) float64 {
	if len(iters) == 0 {
		return 0
	}
	first := iters[0].Observed[objective]
	if math.Abs(first) < 1e-12 {
		return 0
	}
	tail := iters[(3*len(iters))/4:]
	var sum float64
	for _, it := range tail {
		sum += it.Observed[objective]
	}
	return (first - sum/float64(len(tail))) / math.Abs(first)
}

// TestImprovementHelper checks the helper the convergence test judges
// the loop by.
func TestImprovementHelper(t *testing.T) {
	if improvement(nil, 0) != 0 {
		t.Fatal("empty history")
	}
	hist := []Iteration{
		{Observed: []float64{100}},
		{Observed: []float64{80}},
		{Observed: []float64{60}},
		{Observed: []float64{50}},
	}
	if got := improvement(hist, 0); got != 0.5 {
		t.Fatalf("Improvement = %v, want 0.5", got)
	}
	zero := []Iteration{{Observed: []float64{0}}, {Observed: []float64{1}}}
	if improvement(zero, 0) != 0 {
		t.Fatal("zero baseline should return 0")
	}
}

func TestRandomSearchStrategyWorksInLoop(t *testing.T) {
	cfg, initial := twoTenantSetup(t, 12)
	rs, err := pald.NewRandomSearch(cfg.Space.Dim(), 0.2, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = rs
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	iters, err := c.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 2 {
		t.Fatal("history incomplete")
	}
}
