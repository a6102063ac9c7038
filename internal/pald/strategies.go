package pald

import (
	"fmt"
	"math/rand"

	"tempo/internal/linalg"
	"tempo/internal/loess"
)

// Strategy is the interface Tempo's control loop programs against: observe
// measurements, propose candidate configurations. PALD is the primary
// implementation; the baselines below exist for the ablation benchmarks
// (weighted-sum scalarization and random search, §6.2/§9).
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Observe records a (configuration, QS vector) pair. The control loop
	// calls it with the applied configuration's measurement and with every
	// scored candidate's predicted QS vector.
	Observe(x linalg.Vector, f []float64) error
	// Propose returns up to n candidates around the current configuration.
	Propose(x linalg.Vector, f []float64, n int) ([]linalg.Vector, error)
}

// Name implements Strategy.
func (p *Optimizer) Name() string { return "pald" }

var _ Strategy = (*Optimizer)(nil)

// WeightedSum is the classic scalarization baseline: descend the uniformly
// weighted sum of QS gradients, ignoring constraint structure (ρ = 0 in
// the proxy model). Section 6.3 shows why this can violate SLO constraints
// that PALD honors.
type WeightedSum struct {
	inner *Optimizer
}

// NewWeightedSum builds the baseline over the same machinery as PALD but
// with constraints stripped.
func NewWeightedSum(dim, objectives int, opts Options) (*WeightedSum, error) {
	targets := make([]Target, objectives)
	inner, err := New(dim, targets, opts) // no Constrained targets → ρ=0, uniform c
	if err != nil {
		return nil, err
	}
	return &WeightedSum{inner: inner}, nil
}

// Name implements Strategy.
func (w *WeightedSum) Name() string { return "weighted-sum" }

// Observe implements Strategy.
func (w *WeightedSum) Observe(x linalg.Vector, f []float64) error { return w.inner.Observe(x, f) }

// Propose implements Strategy.
func (w *WeightedSum) Propose(x linalg.Vector, f []float64, n int) ([]linalg.Vector, error) {
	return w.inner.Propose(x, f, n)
}

var _ Strategy = (*WeightedSum)(nil)

// RandomSearch proposes uniformly random points inside the trust region —
// the no-model baseline. With the same what-if budget, PALD's gradient
// steps should dominate it.
type RandomSearch struct {
	dim     int
	maxStep float64
	rng     *rand.Rand
}

// NewRandomSearch builds the baseline.
func NewRandomSearch(dim int, maxStep float64, seed int64) (*RandomSearch, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("pald: non-positive dimension %d", dim)
	}
	if maxStep <= 0 {
		maxStep = 0.15
	}
	return &RandomSearch{dim: dim, maxStep: maxStep, rng: rand.New(rand.NewSource(seed))}, nil
}

// Name implements Strategy.
func (r *RandomSearch) Name() string { return "random-search" }

// Observe implements Strategy (random search keeps no model).
func (r *RandomSearch) Observe(linalg.Vector, []float64) error { return nil }

// Propose implements Strategy.
func (r *RandomSearch) Propose(x linalg.Vector, _ []float64, n int) ([]linalg.Vector, error) {
	if len(x) != r.dim {
		return nil, fmt.Errorf("pald: proposal dim %d != %d", len(x), r.dim)
	}
	out := make([]linalg.Vector, 0, n)
	for i := 0; i < n; i++ {
		d := linalg.NewVector(r.dim)
		for j := range d {
			d[j] = r.rng.NormFloat64()
		}
		// The step draw is unconditional so every proposal consumes a fixed
		// number of RNG draws. Skipping it on a degenerate (~zero-norm)
		// direction made the draw count value-dependent, which desyncs any
		// draw-count-based resume (pald.State counts draws). Drawing after
		// the direction loop keeps the stream identical to the old code on
		// the non-degenerate path.
		step := r.rng.Float64()
		if norm := d.Norm(); norm > 1e-12 {
			d = d.Scale(r.maxStep * step / norm)
		}
		out = append(out, x.Add(d).Clamp(0, 1))
	}
	return out, nil
}

var _ Strategy = (*RandomSearch)(nil)

// FiniteDifference estimates gradients by coordinate-wise central
// differences through an evaluation callback instead of LOESS history. It
// exists for the gradient-estimator ablation: under noise it needs many
// more evaluations than LOESS for comparable directions.
type FiniteDifference struct {
	dim  int
	eval func(linalg.Vector) ([]float64, error)
	h    float64
}

// NewFiniteDifference builds the estimator with step h (default 0.02).
func NewFiniteDifference(dim int, h float64, eval func(linalg.Vector) ([]float64, error)) (*FiniteDifference, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("pald: non-positive dimension %d", dim)
	}
	if eval == nil {
		return nil, fmt.Errorf("pald: nil evaluator")
	}
	if h <= 0 {
		h = 0.02
	}
	return &FiniteDifference{dim: dim, eval: eval, h: h}, nil
}

// Jacobian estimates ∇f at x; it costs 2·dim evaluations.
func (fd *FiniteDifference) Jacobian(x linalg.Vector, objectives int) (*linalg.Matrix, error) {
	jac := linalg.NewMatrix(objectives, fd.dim)
	for j := 0; j < fd.dim; j++ {
		hi := x.Clone()
		lo := x.Clone()
		hi[j] += fd.h
		lo[j] -= fd.h
		hi.Clamp(0, 1)
		lo.Clamp(0, 1)
		span := hi[j] - lo[j]
		if span == 0 {
			continue
		}
		fHi, err := fd.eval(hi)
		if err != nil {
			return nil, err
		}
		fLo, err := fd.eval(lo)
		if err != nil {
			return nil, err
		}
		for i := 0; i < objectives; i++ {
			jac.Set(i, j, (fHi[i]-fLo[i])/span)
		}
	}
	return jac, nil
}

// LoessJacobian exposes PALD's internal LOESS gradient estimate for the
// ablation benchmarks.
func LoessJacobian(xs []linalg.Vector, fs [][]float64, x linalg.Vector, span float64) (*linalg.Matrix, error) {
	if len(xs) == 0 || len(xs) != len(fs) {
		return nil, fmt.Errorf("pald: bad sample set (%d xs, %d fs)", len(xs), len(fs))
	}
	objectives := len(fs[0])
	jac := linalg.NewMatrix(objectives, len(x))
	samples := make([]loess.Sample, len(xs))
	for i := 0; i < objectives; i++ {
		for j := range xs {
			samples[j] = loess.Sample{X: xs[j], Y: fs[j][i]}
		}
		g, err := loess.Gradient(samples, x, loess.Options{Span: span})
		if err != nil {
			return nil, err
		}
		copy(jac.Row(i), g)
	}
	return jac, nil
}
