package pald

import (
	"errors"
	"math"
	"testing"

	"tempo/internal/linalg"
)

// near reports whether v and w agree entrywise within tol.
func near(v, w linalg.Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

func TestWeightedSumIgnoresConstraints(t *testing.T) {
	ws, err := NewWeightedSum(2, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Name() != "weighted-sum" {
		t.Fatal("name")
	}
	x := linalg.Vector{0.5, 0.5}
	// Feed strongly "violating" values; the baseline must still behave
	// like plain descent (no panic, proposals in bounds).
	for i := 0; i < 10; i++ {
		if err := ws.Observe(x, []float64{100, 100}); err != nil {
			t.Fatal(err)
		}
	}
	cands, err := ws.Propose(x, []float64{100, 100}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3 {
		t.Fatalf("candidates = %d", len(cands))
	}
	for _, c := range cands {
		for _, v := range c {
			if v < 0 || v > 1 {
				t.Fatalf("candidate out of cube: %v", c)
			}
		}
	}
}

func TestRandomSearchProperties(t *testing.T) {
	rs, err := NewRandomSearch(3, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Name() != "random-search" {
		t.Fatal("name")
	}
	if err := rs.Observe(linalg.Vector{1, 2, 3}, []float64{1}); err != nil {
		t.Fatal("Observe should be a no-op")
	}
	x := linalg.Vector{0.5, 0.5, 0.5}
	cands, err := rs.Propose(x, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 8 {
		t.Fatalf("candidates = %d", len(cands))
	}
	for _, c := range cands {
		if d := c.Dist(x); d > 0.1+1e-9 {
			t.Fatalf("candidate outside trust region: %v", d)
		}
	}
	if _, err := rs.Propose(linalg.Vector{0.5}, nil, 1); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := NewRandomSearch(0, 0.1, 1); err == nil {
		t.Fatal("zero dim accepted")
	}
	// maxStep <= 0 defaults.
	rs2, err := NewRandomSearch(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.maxStep != 0.15 {
		t.Fatalf("default maxStep = %v", rs2.maxStep)
	}
}

func TestFiniteDifferenceExactOnQuadratic(t *testing.T) {
	anchor := linalg.Vector{0.3, 0.7}
	eval := func(x linalg.Vector) ([]float64, error) {
		d := x.Sub(anchor)
		return []float64{d.Dot(d)}, nil
	}
	fd, err := NewFiniteDifference(2, 0.01, eval)
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.Vector{0.5, 0.5}
	jac, err := fd.Jacobian(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := x.Sub(anchor).Scale(2)
	if !near(jac.Row(0), want, 1e-6) {
		t.Fatalf("FD gradient = %v, want %v", jac.Row(0), want)
	}
}

func TestFiniteDifferenceValidation(t *testing.T) {
	if _, err := NewFiniteDifference(0, 0.01, func(linalg.Vector) ([]float64, error) { return nil, nil }); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := NewFiniteDifference(2, 0.01, nil); err == nil {
		t.Fatal("nil evaluator accepted")
	}
	fd, err := NewFiniteDifference(1, 0, func(linalg.Vector) ([]float64, error) { return []float64{0}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if fd.h != 0.02 {
		t.Fatalf("default h = %v", fd.h)
	}
	boom := errors.New("boom")
	fd2, _ := NewFiniteDifference(1, 0.01, func(linalg.Vector) ([]float64, error) { return nil, boom })
	if _, err := fd2.Jacobian(linalg.Vector{0.5}, 1); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestFiniteDifferenceClampsAtCubeEdge(t *testing.T) {
	// At x = 0 the lower probe clamps to 0; the forward span still gives a
	// finite-difference estimate.
	eval := func(x linalg.Vector) ([]float64, error) {
		return []float64{3 * x[0]}, nil
	}
	fd, _ := NewFiniteDifference(1, 0.05, eval)
	jac, err := fd.Jacobian(linalg.Vector{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(jac.At(0, 0)-3) > 1e-9 {
		t.Fatalf("edge gradient = %v, want 3", jac.At(0, 0))
	}
}

func TestLoessJacobianValidation(t *testing.T) {
	if _, err := LoessJacobian(nil, nil, linalg.Vector{0}, 0.5); err == nil {
		t.Fatal("empty samples accepted")
	}
	xs := []linalg.Vector{{0}, {1}}
	fs := [][]float64{{1}}
	if _, err := LoessJacobian(xs, fs, linalg.Vector{0}, 0.5); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestLoessJacobianMultiObjective(t *testing.T) {
	// f1 = 2x+y, f2 = -x+3y sampled on a grid.
	var xs []linalg.Vector
	var fs [][]float64
	for i := 0; i <= 4; i++ {
		for j := 0; j <= 4; j++ {
			x := linalg.Vector{float64(i) / 4, float64(j) / 4}
			xs = append(xs, x)
			fs = append(fs, []float64{2*x[0] + x[1], -x[0] + 3*x[1]})
		}
	}
	jac, err := LoessJacobian(xs, fs, linalg.Vector{0.5, 0.5}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !near(jac.Row(0), linalg.Vector{2, 1}, 1e-6) {
		t.Fatalf("∇f1 = %v", jac.Row(0))
	}
	if !near(jac.Row(1), linalg.Vector{-1, 3}, 1e-6) {
		t.Fatalf("∇f2 = %v", jac.Row(1))
	}
}

func TestSolveCFallsBackToUniform(t *testing.T) {
	opt, err := New(2, []Target{{R: 0, Constrained: true}, {}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Zero Gram matrix → LP degenerate → uniform weights.
	gram := linalg.NewMatrix(2, 2)
	c := opt.solveC(gram, []int{0})
	if math.Abs(c[0]-0.5) > 1e-9 || math.Abs(c[1]-0.5) > 1e-9 {
		t.Fatalf("fallback c = %v, want uniform", c)
	}
	// No violations → uniform.
	c2 := opt.solveC(gram, nil)
	if c2[0] != 0.5 {
		t.Fatalf("no-violation c = %v", c2)
	}
}

func TestSolveCFavorsWorstViolated(t *testing.T) {
	opt, err := New(2, []Target{{R: 0, Constrained: true}, {R: 0, Constrained: true}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Objective 0's gradient is tiny, objective 1's is huge; the max-min
	// LP must give objective 0 a much larger weight so its alignment
	// keeps up.
	gram := &linalg.Matrix{Rows: 2, Cols: 2, Data: []float64{
		0.01, 0,
		0, 100,
	}}
	c := opt.solveC(gram, []int{0, 1})
	if c[0] <= c[1] {
		t.Fatalf("c = %v; weak objective should get the larger weight", c)
	}
	if math.Abs(c.Norm()-1) > 1e-9 {
		t.Fatalf("c not normalized: %v", c.Norm())
	}
}

func TestChooseRhoConflictingGradients(t *testing.T) {
	// Violated objective 0 conflicts with objective 1 (negative cross
	// term); ρ* must keep objective 0's alignment as high as possible.
	gram := &linalg.Matrix{Rows: 2, Cols: 2, Data: []float64{
		1, -0.8,
		-0.8, 1,
	}}
	c := linalg.Vector{0.7, 0.3}
	rho := chooseRho(gram, c, []int{0})
	if rho >= 1 {
		t.Fatalf("rho = %v", rho)
	}
	// Alignment under chosen rho must beat the rho=0 alignment.
	align := func(r float64) float64 {
		// objective 0: c0(1-r)G00 + c1 G01 (objective 1 not violated).
		return c[0]*(1-r)*gram.At(0, 0) + c[1]*gram.At(0, 1)
	}
	if align(rho) < align(0)-1e-12 {
		t.Fatalf("chosen rho %v has worse alignment than 0", rho)
	}
}
