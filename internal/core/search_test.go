package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/pald"
	"tempo/internal/whatif"
)

// TestImprovementTable (PR-8 satellite): the ~zero-first guard must fire
// before the tail computation, and the tail window math must hold for
// every small history length.
func TestImprovementTable(t *testing.T) {
	hist := func(vals ...float64) []Iteration {
		out := make([]Iteration, len(vals))
		for i, v := range vals {
			out[i] = Iteration{Index: i, Observed: []float64{v}}
		}
		return out
	}
	cases := []struct {
		name    string
		history []Iteration
		want    float64
	}{
		{"len0", hist(), 0},
		{"len1", hist(4), 0},                               // tail is the first observation again
		{"len1-zero-first", hist(0), 0},                    // guard, not 0/0
		{"len2", hist(4, 2), 0.5},                          // tail = last element
		{"len3", hist(4, 3, 2), 0.5},                       // tail index (3*3)/4 = 2
		{"len3-zero-first", hist(0, 5, 5), 0},              // guard fires before tail math
		{"len4", hist(4, 9, 9, 3), 0.25},                   // tail index 3
		{"len4-negative-first", hist(-4, 0, 0, -3), -0.25}, // |first| denominator
	}
	for _, tc := range cases {
		if got := Improvement(tc.history, 0); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Improvement = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// batchOnlyModel hides EvaluateSearch from the controller so scoring
// falls back to the exhaustive batch path — the reference the
// incremental search is checked against.
type batchOnlyModel struct{ m *whatif.Model }

func (b *batchOnlyModel) Evaluate(cfg cluster.Config) ([]float64, error) { return b.m.Evaluate(cfg) }
func (b *batchOnlyModel) EvaluateBatch(cfgs []cluster.Config) ([][]float64, error) {
	return b.m.EvaluateBatch(cfgs)
}

// stripSearch clears the cache-temperature diagnostics so trajectories
// can be compared structurally.
func stripSearch(hist []Iteration) []Iteration {
	for i := range hist {
		hist[i].Search = nil
	}
	return hist
}

// TestIncrementalSearchMatchesExhaustive: under RandomSearch the
// warm-started search must walk exactly the trajectory exhaustive scoring
// walks, score every candidate, and warm-start the incumbent from the
// cross-tick cache after the first iteration.
func TestIncrementalSearchMatchesExhaustive(t *testing.T) {
	const steps = 5
	run := func(exhaustive bool) ([]Iteration, cluster.Config, []*SearchStats) {
		cfg, initial := twoTenantSetup(t, 31)
		rs, err := pald.NewRandomSearch(cfg.Space.Dim(), 0.2, 77)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Strategy = rs
		if exhaustive {
			cfg.Model = &batchOnlyModel{m: cfg.Model.(*whatif.Model)}
		}
		c, err := NewController(cfg, initial)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := c.Run(steps)
		if err != nil {
			t.Fatal(err)
		}
		stats := make([]*SearchStats, steps)
		for i := range stats {
			stats[i] = c.Search(i)
		}
		return hist, c.Current(), stats
	}
	exHist, exCfg, _ := run(true)
	incHist, incCfg, incStats := run(false)
	if !reflect.DeepEqual(stripSearch(exHist), stripSearch(incHist)) {
		t.Fatalf("trajectories diverge:\nexhaustive:  %+v\nincremental: %+v", exHist, incHist)
	}
	if !reflect.DeepEqual(exCfg, incCfg) {
		t.Fatalf("final configs diverge:\nexhaustive:  %+v\nincremental: %+v", exCfg, incCfg)
	}
	warm := 0
	for i, st := range incStats {
		if st == nil {
			t.Fatalf("iteration %d has no search stats", i)
		}
		if st.Pruned != 0 || st.Candidates != st.FullyScored+st.WarmStarted {
			t.Fatalf("iteration %d stats don't add up: %+v", i, st)
		}
		if st.DecisionNanos != 0 {
			t.Fatalf("iteration %d has nonzero decision latency without a clock", i)
		}
		warm += st.WarmStarted
	}
	if warm == 0 {
		t.Fatal("incumbent never warm-started from the cross-tick cache")
	}
}

// TestDecisionLatencyUsesInjectedClock: DecisionNanos comes from
// Config.Now and only from it.
func TestDecisionLatencyUsesInjectedClock(t *testing.T) {
	cfg, initial := twoTenantSetup(t, 33)
	var fake int64
	cfg.Now = func() time.Time {
		fake += 1_000_000 // 1ms per reading
		return time.Unix(0, fake)
	}
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	st := c.Search(0)
	if st == nil || st.DecisionNanos != 1_000_000 {
		t.Fatalf("DecisionNanos = %+v, want exactly one fake-clock delta", st)
	}
	if c.Search(-1) != nil || c.Search(1) != nil {
		t.Fatal("out-of-range Search index returned stats")
	}
}
