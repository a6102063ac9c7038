package pald

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tempo/internal/linalg"
)

// quadratic returns a noisy two-objective test problem: f_i = ||x − a_i||².
func quadratic(anchors []linalg.Vector, noise float64, rng *rand.Rand) func(linalg.Vector) []float64 {
	return func(x linalg.Vector) []float64 {
		out := make([]float64, len(anchors))
		for i, a := range anchors {
			d := x.Sub(a)
			out[i] = d.Dot(d)
			if noise > 0 {
				out[i] += noise * rng.NormFloat64()
			}
		}
		return out
	}
}

// drive runs the optimize-observe loop for iters iterations and returns the
// final configuration.
func drive(t *testing.T, opt *Optimizer, eval func(linalg.Vector) []float64, x0 linalg.Vector, iters int) linalg.Vector {
	t.Helper()
	x := x0.Clone()
	f := eval(x)
	if err := opt.Observe(x, f); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		next, err := opt.Step(x, f)
		if err != nil {
			t.Fatal(err)
		}
		x = next
		f = eval(x)
		if err := opt.Observe(x, f); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, []Target{{}}, Options{}); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := New(2, nil, Options{}); err == nil {
		t.Fatal("no objectives accepted")
	}
}

func TestObserveValidation(t *testing.T) {
	opt, err := New(2, []Target{{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Observe(linalg.Vector{1}, []float64{1}); err == nil {
		t.Fatal("wrong x dim accepted")
	}
	if err := opt.Observe(linalg.Vector{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("wrong f length accepted")
	}
	if err := opt.Observe(linalg.Vector{1, 1}, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
	if err := opt.Observe(linalg.Vector{0.5, 0.5}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if opt.SampleCount() != 1 {
		t.Fatal("sample not recorded")
	}
}

func TestHistoryBounded(t *testing.T) {
	opt, err := New(1, []Target{{}}, Options{History: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := opt.Observe(linalg.Vector{float64(i) / 20}, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if opt.SampleCount() != 5 {
		t.Fatalf("history = %d, want 5", opt.SampleCount())
	}
}

func TestWarmupExploresWithinTrustRegion(t *testing.T) {
	opt, err := New(4, []Target{{}}, Options{MaxStep: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.Vector{0.5, 0.5, 0.5, 0.5}
	next, err := opt.Step(x, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if d := next.Dist(x); d > 0.1+1e-9 {
		t.Fatalf("warm-up step distance %v exceeds trust region", d)
	}
}

func TestStepDimValidation(t *testing.T) {
	opt, _ := New(2, []Target{{}}, Options{})
	if _, err := opt.Step(linalg.Vector{1}, []float64{0}); err == nil {
		t.Fatal("wrong dim accepted")
	}
}

func TestConvergesOnSingleObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	anchor := linalg.Vector{0.7, 0.3}
	eval := quadratic([]linalg.Vector{anchor}, 0, rng)
	opt, err := New(2, []Target{{}}, Options{Seed: 2, StepSize: 0.5, MaxStep: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	x := drive(t, opt, eval, linalg.Vector{0.1, 0.9}, 60)
	if d := x.Dist(anchor); d > 0.15 {
		t.Fatalf("final distance to optimum %v, want < 0.15 (x=%v)", d, x)
	}
}

func TestConvergesUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	anchor := linalg.Vector{0.6, 0.6}
	eval := quadratic([]linalg.Vector{anchor}, 0.02, rng)
	opt, err := New(2, []Target{{}}, Options{Seed: 4, StepSize: 0.4, MaxStep: 0.15, Span: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	x := drive(t, opt, eval, linalg.Vector{0.1, 0.1}, 80)
	if d := x.Dist(anchor); d > 0.25 {
		t.Fatalf("noisy convergence distance %v, want < 0.25", d)
	}
}

// TestConvergesToParetoSet: with two conflicting quadratics the Pareto set
// is the segment [a1, a2]; PALD should end close to it.
func TestConvergesToParetoSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a1 := linalg.Vector{0.2, 0.5}
	a2 := linalg.Vector{0.8, 0.5}
	eval := quadratic([]linalg.Vector{a1, a2}, 0, rng)
	opt, err := New(2, []Target{{}, {}}, Options{Seed: 6, StepSize: 0.4, MaxStep: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	x := drive(t, opt, eval, linalg.Vector{0.5, 0.05}, 80)
	// Distance to the segment y=0.5, 0.2<=x<=0.8.
	dx := 0.0
	if x[0] < 0.2 {
		dx = 0.2 - x[0]
	} else if x[0] > 0.8 {
		dx = x[0] - 0.8
	}
	dy := math.Abs(x[1] - 0.5)
	if d := math.Hypot(dx, dy); d > 0.15 {
		t.Fatalf("distance to Pareto segment %v, want < 0.15 (x=%v)", d, x)
	}
}

// TestConstraintSatisfaction: constrain f1 <= r and minimize f2; PALD must
// end feasible (or nearly) while improving f2 — max-min over regret.
func TestConstraintSatisfaction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a1 := linalg.Vector{0.2, 0.5}
	a2 := linalg.Vector{0.9, 0.5}
	eval := quadratic([]linalg.Vector{a1, a2}, 0, rng)
	r1 := 0.09 // ||x−a1||² <= 0.09 ⇔ within 0.3 of a1
	opt, err := New(2, []Target{{R: r1, Constrained: true}, {}}, Options{Seed: 8, StepSize: 0.4, MaxStep: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	x := drive(t, opt, eval, linalg.Vector{0.9, 0.5}, 100)
	f := eval(x)
	if f[0] > r1+0.05 {
		t.Fatalf("constraint violated at convergence: f1 = %v > %v (x=%v)", f[0], r1, x)
	}
	// f2 should be meaningfully better than at a1 (the constraint center):
	// the optimum sits on the constraint boundary toward a2.
	atA1 := a2.Sub(a1).Dot(a2.Sub(a1))
	if f[1] > atA1 {
		t.Fatalf("f2 = %v worse than trivially feasible point %v", f[1], atA1)
	}
}

func TestStationaryPointSmallProbe(t *testing.T) {
	// Single objective already at optimum: steps should stay local.
	rng := rand.New(rand.NewSource(9))
	anchor := linalg.Vector{0.5, 0.5}
	eval := quadratic([]linalg.Vector{anchor}, 0, rng)
	opt, err := New(2, []Target{{}}, Options{Seed: 10, MaxStep: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	x := drive(t, opt, eval, anchor, 30)
	if d := x.Dist(anchor); d > 0.2 {
		t.Fatalf("drifted %v from optimum", d)
	}
}

func TestSetTargets(t *testing.T) {
	opt, _ := New(2, []Target{{}, {}}, Options{})
	if err := opt.SetTargets([]Target{{R: 1, Constrained: true}}); err == nil {
		t.Fatal("wrong target count accepted")
	}
	if err := opt.SetTargets([]Target{{R: 1, Constrained: true}, {}}); err != nil {
		t.Fatal(err)
	}
}

func TestProposeCountAndTrustRegion(t *testing.T) {
	opt, _ := New(3, []Target{{}}, Options{Seed: 11, MaxStep: 0.1})
	x := linalg.Vector{0.5, 0.5, 0.5}
	cands, err := opt.Propose(x, []float64{1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 5 {
		t.Fatalf("proposals = %d, want 5", len(cands))
	}
	for i, c := range cands {
		if d := c.Dist(x); d > 0.1+1e-9 {
			t.Fatalf("candidate %d at distance %v > trust radius", i, d)
		}
		for _, v := range c {
			if v < 0 || v > 1 {
				t.Fatalf("candidate %d leaves unit cube: %v", i, c)
			}
		}
	}
	if got, _ := opt.Propose(x, []float64{1}, 0); got != nil {
		t.Fatal("n=0 should return nil")
	}
}

// TestTheorem1ProxyMonotonicity is the empirical check of Theorem 1: if a
// dominates b (componentwise <=, somewhere <), then ProxyScore(a) <
// ProxyScore(b) for any positive c and ρ < 1 — so no dominated point can
// minimize the proxy.
func TestTheorem1ProxyMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		a := make([]float64, k)
		b := make([]float64, k)
		targets := make([]Target, k)
		c := make([]float64, k)
		for i := 0; i < k; i++ {
			a[i] = rng.NormFloat64() * 5
			b[i] = a[i] + rng.Float64()*3 // b >= a componentwise
			targets[i] = Target{R: rng.NormFloat64() * 5, Constrained: rng.Intn(2) == 0}
			c[i] = 0.1 + rng.Float64()
		}
		b[rng.Intn(k)] += 0.5 // strict somewhere
		rho := rng.Float64()*1.8 - 0.9
		return ProxyScore(a, targets, c, rho) < ProxyScore(b, targets, c, rho)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSection63Counterexample reproduces the paper's weighted-sum failure:
// QS vectors (5,5) and (0,7) with r = (6,6). Equal-weight sum prefers
// (0,7), which violates r2; the proxy with ρ > 0 prefers the feasible
// (5,5).
func TestSection63Counterexample(t *testing.T) {
	feasible := []float64{5, 5}
	infeasible := []float64{0, 7}
	targets := []Target{{R: 6, Constrained: true}, {R: 6, Constrained: true}}
	// Weighted sum (ρ = 0, constraints ignored): infeasible point scores
	// lower (wins) — the failure mode the paper calls out.
	if ProxyScore(infeasible, targets, nil, 0) >= ProxyScore(feasible, targets, nil, 0) {
		t.Fatal("setup broken: weighted sum should prefer (0,7)")
	}
	// PALD's full (SP2) ordering keeps the constraints: (5,5) must win.
	if !Better(feasible, infeasible, targets, nil, 0.5) {
		t.Fatal("PALD ordering failed to prefer the feasible (5,5)")
	}
	if Better(infeasible, feasible, targets, nil, 0.5) {
		t.Fatal("PALD ordering is not antisymmetric here")
	}
}

func TestMaxRegretAndBetter(t *testing.T) {
	targets := []Target{{R: 1, Constrained: true}, {}}
	if got := MaxRegret([]float64{3, 100}, targets); got != 2 {
		t.Fatalf("MaxRegret = %v, want 2", got)
	}
	if got := MaxRegret([]float64{0.5, 100}, targets); got != 0 {
		t.Fatalf("satisfied MaxRegret = %v, want 0", got)
	}
	// Equal regret → proxy decides.
	if !Better([]float64{0.5, 1}, []float64{0.5, 2}, targets, nil, 0) {
		t.Fatal("proxy tie-break failed")
	}
}

func TestChooseRhoNoViolations(t *testing.T) {
	g := &linalg.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 0, 0, 1}}
	if got := chooseRho(g, linalg.Vector{0.5, 0.5}, nil); got != 0 {
		t.Fatalf("rho = %v, want 0 without violations", got)
	}
}

func TestChooseRhoAlignedGradients(t *testing.T) {
	// Identical gradients: any rho < 1 keeps alignment positive; the
	// chosen rho must keep the violated objective's alignment >= 0.
	g := &linalg.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 1, 1, 1}}
	c := linalg.Vector{0.5, 0.5}
	rho := chooseRho(g, c, []int{0})
	if rho >= 1 {
		t.Fatalf("rho = %v, want < 1", rho)
	}
	// Alignment of violated objective 0 must be nonnegative.
	a := c[0]*(1-rho)*g.At(0, 0) + c[1]*g.At(0, 1)
	if a < 0 {
		t.Fatalf("alignment %v < 0", a)
	}
}

func TestProxyScoreUnconstrainedIsPlainSum(t *testing.T) {
	f := []float64{2, 3}
	targets := []Target{{}, {}}
	if got := ProxyScore(f, targets, nil, 0.7); math.Abs(got-5) > 1e-12 {
		t.Fatalf("unconstrained proxy = %v, want 5 regardless of rho", got)
	}
}
