package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/pald"
	"tempo/internal/qs"
	"tempo/internal/whatif"
	"tempo/internal/workload"
)

// emulator stands in for the live cluster in these tests: every control
// interval (one hour) it synthesizes a fresh workload draw from the tenant
// profiles and runs it on the noisy cluster emulator.
type emulator struct {
	profiles []workload.TenantProfile
	// noise configures the emulation disturbances; nil is deterministic.
	noise *cluster.NoiseModel
	// seed bases the per-interval workload and noise seeds.
	seed int64
}

// step observes the controller's next interval under its current
// configuration and applies the schedule.
func (e *emulator) step(c *Controller) (Iteration, error) {
	i := c.steps
	trace, err := workload.Generate(e.profiles, workload.GenerateOptions{
		Horizon: time.Hour,
		Seed:    e.seed + int64(i)*104729,
		Name:    fmt.Sprintf("iter-%d", i),
	})
	if err != nil {
		return Iteration{}, err
	}
	opts := cluster.Options{Horizon: time.Hour}
	if e.noise != nil {
		n := *e.noise
		n.Seed = e.noise.Seed + int64(i)*7907
		opts.Noise = &n
	}
	sched, err := cluster.Run(trace, c.Current(), opts)
	if err != nil {
		return Iteration{}, err
	}
	return c.Apply(sched)
}

// run steps the controller n times and returns the iterations, oldest
// first.
func (e *emulator) run(c *Controller, n int) ([]Iteration, error) {
	out := make([]Iteration, 0, n)
	for i := 0; i < n; i++ {
		it, err := e.step(c)
		if err != nil {
			return out, err
		}
		out = append(out, it)
	}
	return out, nil
}

// twoTenantSetup builds the canonical §8.2.1 scenario: a deadline-driven
// tenant and a best-effort tenant on an overcommitted cluster, starting
// from a deliberately skewed "expert" configuration, and the emulator
// that observes it.
func twoTenantSetup(t *testing.T, seed int64) (Config, cluster.Config, *emulator) {
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
	model, err := whatif.FromProfiles(templates, profiles, time.Hour, seed+500, 1)
	if err != nil {
		t.Fatal(err)
	}
	env := &emulator{profiles: profiles, noise: cluster.DefaultNoise(seed), seed: seed}
	cfg := Config{
		Space:      space,
		Templates:  templates,
		Model:      model,
		Candidates: 4,
		PALD:       pald.Options{Seed: seed, MaxStep: 0.2},
	}
	// A skewed expert config: best-effort tenant starved, huge preemption
	// exposure for prod.
	initial := cluster.Config{TotalContainers: capacity, Tenants: map[string]cluster.TenantConfig{
		"prod":  {Weight: 4, MinShare: 20, MaxShare: 40, MinSharePreemptTimeout: 20 * time.Second, SharePreemptTimeout: time.Minute},
		"adhoc": {Weight: 0.5, MaxShare: 10},
	}}
	return cfg, initial, env
}

func TestNewControllerValidation(t *testing.T) {
	cfg, initial, _ := twoTenantSetup(t, 1)
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
	if _, err := NewController(cfg, cluster.Config{}); err == nil {
		t.Fatal("invalid initial config accepted")
	}
}

func TestControllerDefaults(t *testing.T) {
	cfg, initial, _ := twoTenantSetup(t, 2)
	cfg.Candidates = 0
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.Candidates != 5 {
		t.Fatalf("default candidates not applied: %v", c.cfg.Candidates)
	}
}

func TestStepRecordsIteration(t *testing.T) {
	cfg, initial, env := twoTenantSetup(t, 3)
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	it, err := env.step(c)
	if err != nil {
		t.Fatal(err)
	}
	if it.Index != 0 {
		t.Fatalf("index = %d", it.Index)
	}
	if len(it.Observed) != 2 {
		t.Fatalf("observed = %v", it.Observed)
	}
	if it, err := env.step(c); err != nil || it.Index != 1 {
		t.Fatalf("second step = index %d, %v; want index 1", it.Index, err)
	}
}

func TestTargetsRatchetForBestEffort(t *testing.T) {
	cfg, initial, env := twoTenantSetup(t, 4)
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.step(c); err != nil {
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
		if _, err := env.step(c); err != nil {
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
	cfg, initial, env := twoTenantSetup(t, 5)
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	history, err := env.run(c, 12)
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
	cfg, initial, env := twoTenantSetup(t, 6)
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	// Force a previous observation that is strictly better than anything
	// achievable, so the guard must fire on the next step.
	c.hasPrev = true
	c.prevObserved = []float64{-1, -1}
	c.prevConfig = initial.Clone()
	it, err := env.step(c)
	if err != nil {
		t.Fatal(err)
	}
	if !it.Reverted {
		t.Fatal("guard did not revert")
	}
}

func TestRevertOffNeverReverts(t *testing.T) {
	cfg, initial, env := twoTenantSetup(t, 7)
	cfg.Revert = RevertOff
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	c.hasPrev = true
	c.prevObserved = []float64{-1, -1}
	c.prevConfig = initial.Clone()
	it, err := env.step(c)
	if err != nil {
		t.Fatal(err)
	}
	if it.Reverted {
		t.Fatal("RevertOff still reverted")
	}
}

func TestRevertOnNonDominancePolicy(t *testing.T) {
	cfg, initial, env := twoTenantSetup(t, 8)
	cfg.Revert = RevertOnNonDominance
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	c.hasPrev = true
	c.prevObserved = []float64{1e9, 1e9} // everything dominates this
	c.prevConfig = initial.Clone()
	it, err := env.step(c)
	if err != nil {
		t.Fatal(err)
	}
	if it.Reverted {
		t.Fatal("dominating observation should not revert")
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
	cfg, initial, env := twoTenantSetup(t, 12)
	rs, err := pald.NewRandomSearch(cfg.Space.Dim(), 0.2, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = rs
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	iters, err := env.run(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 2 {
		t.Fatal("history incomplete")
	}
}
