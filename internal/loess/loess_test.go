package loess

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

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

func linearSamples(rng *rand.Rand, n, dim int, a float64, g linalg.Vector, noise float64) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		x := linalg.NewVector(dim)
		for j := range x {
			x[j] = rng.Float64()
		}
		y := a + g.Dot(x) + noise*rng.NormFloat64()
		samples[i] = Sample{X: x, Y: y}
	}
	return samples
}

func TestRecoversLinearFunctionExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := linalg.Vector{2, -3, 0.5}
	samples := linearSamples(rng, 50, 3, 1.5, g, 0)
	x0 := linalg.Vector{0.5, 0.5, 0.5}
	fit, err := Estimate(samples, x0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantVal := 1.5 + g.Dot(x0)
	if math.Abs(fit.Value-wantVal) > 1e-6 {
		t.Errorf("Value = %v, want %v", fit.Value, wantVal)
	}
	if !near(fit.Gradient, g, 1e-6) {
		t.Errorf("Gradient = %v, want %v", fit.Gradient, g)
	}
}

func TestGradientUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := linalg.Vector{4, -2}
	samples := linearSamples(rng, 400, 2, 0, g, 0.05)
	x0 := linalg.Vector{0.5, 0.5}
	grad, err := Gradient(samples, x0, Options{Span: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !near(grad, g, 0.2) {
		t.Fatalf("noisy gradient = %v, want ≈ %v", grad, g)
	}
}

func TestLocalityOnPiecewiseFunction(t *testing.T) {
	// f(x) = x for x < 0.5, f(x) = 10 - 17x for x >= 0.5 (slope changes).
	// A small span queried deep inside the right piece should see slope -17.
	var samples []Sample
	for i := 0; i < 200; i++ {
		x := float64(i) / 199
		y := x
		if x >= 0.5 {
			y = 10 - 17*x
		}
		samples = append(samples, Sample{X: linalg.Vector{x}, Y: y})
	}
	fit, err := Estimate(samples, linalg.Vector{0.9}, Options{Span: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Gradient[0]+17) > 0.5 {
		t.Fatalf("local slope = %v, want ≈ -17", fit.Gradient[0])
	}
}

func TestQuadraticGradientAtCenter(t *testing.T) {
	// f(x) = (x-0.3)², gradient at 0.7 is 2·0.4 = 0.8. A local linear fit
	// with a modest span should approximate it.
	var samples []Sample
	for i := 0; i < 300; i++ {
		x := float64(i) / 299
		samples = append(samples, Sample{X: linalg.Vector{x}, Y: (x - 0.3) * (x - 0.3)})
	}
	fit, err := Estimate(samples, linalg.Vector{0.7}, Options{Span: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Gradient[0]-0.8) > 0.1 {
		t.Fatalf("gradient = %v, want ≈ 0.8", fit.Gradient[0])
	}
}

func TestTooFewSamples(t *testing.T) {
	samples := []Sample{{X: linalg.Vector{0, 0}, Y: 1}}
	if _, err := Estimate(samples, linalg.Vector{0, 0}, Options{}); err == nil {
		t.Fatal("expected ErrTooFewSamples")
	}
}

func TestDimensionMismatch(t *testing.T) {
	samples := []Sample{
		{X: linalg.Vector{0}, Y: 1},
		{X: linalg.Vector{1}, Y: 2},
		{X: linalg.Vector{2}, Y: 3},
	}
	if _, err := Estimate(samples, linalg.Vector{0, 0}, Options{}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestEmptyQueryPoint(t *testing.T) {
	if _, err := Estimate(nil, linalg.Vector{}, Options{}); err == nil {
		t.Fatal("expected error for empty query")
	}
}

func TestCoincidentSamplesFallBack(t *testing.T) {
	// Several samples exactly at x0 plus a few informative ones.
	samples := []Sample{
		{X: linalg.Vector{0.5}, Y: 1},
		{X: linalg.Vector{0.5}, Y: 1},
		{X: linalg.Vector{0.0}, Y: 0},
		{X: linalg.Vector{1.0}, Y: 2},
	}
	fit, err := Estimate(samples, linalg.Vector{0.5}, Options{Span: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Gradient[0]-2) > 0.3 {
		t.Fatalf("gradient = %v, want ≈ 2", fit.Gradient[0])
	}
}

func TestDefaultsApplied(t *testing.T) {
	o := Options{Span: -1, Ridge: -1}.withDefaults()
	if o.Span != 0.75 || o.Ridge != 1e-8 {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := Options{Span: 2}.withDefaults()
	if o2.Span != 0.75 {
		t.Fatalf("span > 1 not clamped: %v", o2.Span)
	}
}

func TestTricubeShape(t *testing.T) {
	if tricube(0, 1) != 1 {
		t.Fatal("tricube(0) != 1")
	}
	if w := tricube(1, 1); w != 1e-6 {
		t.Fatalf("tricube at boundary = %v, want floor 1e-6", w)
	}
	if tricube(0.2, 1) <= tricube(0.8, 1) {
		t.Fatal("tricube not decreasing")
	}
	if tricube(5, 0) != 1 {
		t.Fatal("zero bandwidth should degrade to uniform weight")
	}
}

// Property: for noiseless affine data, LOESS recovers the exact gradient
// regardless of sampling and query location.
func TestPropertyExactOnAffine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(4)
		g := linalg.NewVector(dim)
		for i := range g {
			g[i] = rng.NormFloat64() * 3
		}
		a := rng.NormFloat64()
		samples := linearSamples(rng, 10*(dim+1), dim, a, g, 0)
		x0 := linalg.NewVector(dim)
		for i := range x0 {
			x0[i] = rng.Float64()
		}
		fit, err := Estimate(samples, x0, Options{Span: 0.9})
		if err != nil {
			return false
		}
		return near(fit.Gradient, g, 1e-5) && math.Abs(fit.Value-(a+g.Dot(x0))) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the fitted value is within the sample value range for
// interpolating queries on monotone 1-D data (no wild extrapolation inside
// the hull).
func TestPropertyValueWithinRangeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var samples []Sample
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 40; i++ {
			x := float64(i) / 39
			y := 3*x + rng.Float64()*0.01
			samples = append(samples, Sample{X: linalg.Vector{x}, Y: y})
			lo = math.Min(lo, y)
			hi = math.Max(hi, y)
		}
		q := rng.Float64()
		fit, err := Estimate(samples, linalg.Vector{q}, Options{Span: 0.5})
		if err != nil {
			return false
		}
		return fit.Value >= lo-0.2 && fit.Value <= hi+0.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEstimate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := linalg.Vector{1, 2, 3, 4, 5}
	samples := linearSamples(rng, 200, 5, 0, g, 0.01)
	x0 := linalg.Vector{0.5, 0.5, 0.5, 0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(samples, x0, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
