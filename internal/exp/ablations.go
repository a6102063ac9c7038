package exp

import (
	"fmt"
	"math/rand"
	"time"

	"tempo/internal/linalg"
	"tempo/internal/pald"
)

// StrategyComparisonRow is one optimizer's outcome on the constrained
// two-tenant scenario under an equal what-if budget.
type StrategyComparisonRow struct {
	Strategy string
	// FinalAJR is the final-quarter mean best-effort response time.
	FinalAJR float64
	// FinalDLViolations is the final-quarter mean deadline-miss fraction.
	FinalDLViolations float64
	// AJRImprovement is relative to iteration 0.
	AJRImprovement float64
	// MeanMaxRegret averages the per-iteration worst constraint violation.
	MeanMaxRegret float64
}

// StrategyComparisonResult compares PALD against the weighted-sum and
// random-search baselines (the §6.2/§9 ablation).
type StrategyComparisonResult struct {
	Iterations int
	Rows       []StrategyComparisonRow
}

// CompareStrategies runs the same constrained scenario under PALD,
// weighted-sum scalarization, and random search.
func CompareStrategies(seed int64, iterations int) (*StrategyComparisonResult, error) {
	if iterations <= 0 {
		iterations = 12
	}
	res := &StrategyComparisonResult{Iterations: iterations}
	const slack = 0.25
	var targets []pald.Target
	for _, slo := range TwoTenantSpec(seed, slack, time.Hour, iterations).SLOs {
		t := pald.Target{Constrained: slo.Target != nil}
		if t.Constrained {
			t.R = *slo.Target
		}
		targets = append(targets, t)
	}
	type entry struct {
		name  string
		build func(dim int) (pald.Strategy, error)
	}
	entries := []entry{
		{"pald", func(int) (pald.Strategy, error) { return nil, nil }}, // controller default
		{"weighted-sum", func(dim int) (pald.Strategy, error) {
			return pald.NewWeightedSum(dim, 2, pald.Options{Seed: seed + 41, MaxStep: 0.2})
		}},
		{"random-search", func(dim int) (pald.Strategy, error) {
			return pald.NewRandomSearch(dim, 0.2, seed+43)
		}},
	}
	for _, e := range entries {
		strategy, err := e.build(10) // two tenants × five params
		if err != nil {
			return nil, err
		}
		rep, err := runTwoTenant(seed, slack, iterations, strategy, "")
		if err != nil {
			return nil, err
		}
		var regret float64
		for _, it := range rep.Iterations {
			regret += pald.MaxRegret(it.Observed, targets)
		}
		res.Rows = append(res.Rows, StrategyComparisonRow{
			Strategy:          e.name,
			FinalAJR:          rep.Summary.LastQuarterMean[1],
			FinalDLViolations: rep.Summary.LastQuarterMean[0],
			AJRImprovement:    rep.Summary.Improvement[1],
			MeanMaxRegret:     regret / float64(len(rep.Iterations)),
		})
	}
	return res, nil
}

// Render prints the comparison.
func (r *StrategyComparisonResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Strategy,
			fmt.Sprintf("%.1f", row.FinalAJR),
			fmt.Sprintf("%.3f", row.FinalDLViolations),
			fmt.Sprintf("%+.1f%%", row.AJRImprovement*100),
			fmt.Sprintf("%.4f", row.MeanMaxRegret),
		})
	}
	return fmt.Sprintf("Ablation: optimizer strategies (%d iterations, equal what-if budget)\n", r.Iterations) +
		table([]string{"strategy", "final AJR s", "final DL", "AJR improvement", "mean regret"}, rows)
}

// GuardAblationRow is one (trust region, revert guard) configuration.
type GuardAblationRow struct {
	Name string
	// WorstStepRegression is the largest iteration-to-iteration increase
	// in best-effort AJR (normalized to iteration 0) — the production-risk
	// quantity the trust region and revert guard bound.
	WorstStepRegression float64
	// AJRImprovement at convergence.
	AJRImprovement float64
	// Reverts counts guard activations.
	Reverts int
}

// GuardAblationResult compares trust-region and revert-guard settings.
type GuardAblationResult struct {
	Rows []GuardAblationRow
}

// GuardAblation runs the constrained scenario with (a) the default bounded
// trust region + guard, (b) a wide-open trust region, and (c) the guard
// disabled, reporting regression risk versus convergence.
func GuardAblation(seed int64, iterations int) (*GuardAblationResult, error) {
	if iterations <= 0 {
		iterations = 12
	}
	type variant struct {
		name    string
		maxStep float64
		revert  string
	}
	variants := []variant{
		{"trust=0.2 guard=on", 0.2, "on-worse"},
		{"trust=0.8 guard=on", 0.8, "on-worse"},
		{"trust=0.2 guard=off", 0.2, "off"},
	}
	res := &GuardAblationResult{}
	for _, v := range variants {
		strategy, err := pald.New(10, make([]pald.Target, 2), pald.Options{Seed: seed + 53, MaxStep: v.maxStep})
		if err != nil {
			return nil, err
		}
		rep, err := runTwoTenant(seed, 0.25, iterations, strategy, v.revert)
		if err != nil {
			return nil, err
		}
		history := rep.Iterations
		row := GuardAblationRow{Name: v.name, AJRImprovement: rep.Summary.Improvement[1], Reverts: rep.Summary.Reverts}
		base := history[0].Observed[1]
		if base <= 0 {
			base = 1
		}
		for i := 1; i < len(history); i++ {
			delta := (history[i].Observed[1] - history[i-1].Observed[1]) / base
			row.WorstStepRegression = max(row.WorstStepRegression, delta)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the ablation table.
func (r *GuardAblationResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%.2f", row.WorstStepRegression),
			fmt.Sprintf("%+.1f%%", row.AJRImprovement*100),
			fmt.Sprintf("%d", row.Reverts),
		})
	}
	return "Ablation: trust region and revert guard (regression risk vs convergence)\n" +
		table([]string{"variant", "worst step regression", "AJR improvement", "reverts"}, rows)
}

// GradientAblationResult compares LOESS and central finite differences as
// gradient estimators under measurement noise.
type GradientAblationResult struct {
	// Cosine similarity to the true gradient (higher is better).
	LoessCosine, FDCosine float64
	// Evaluations consumed by each estimator.
	LoessEvals, FDEvals int
}

// GradientAblation evaluates both estimators on a noisy quadratic with a
// known gradient. LOESS reuses one shared pool of samples (as PALD's
// history does); finite differences must pay 2·dim fresh evaluations and
// inherits their noise directly.
func GradientAblation(seed int64) (*GradientAblationResult, error) {
	rng := rand.New(rand.NewSource(seed))
	dim := 6
	anchor := linalg.NewVector(dim)
	for i := range anchor {
		anchor[i] = rng.Float64()
	}
	noise := 0.02
	eval := func(x linalg.Vector) []float64 {
		d := x.Sub(anchor)
		return []float64{d.Dot(d) + noise*rng.NormFloat64()}
	}
	x0 := linalg.NewVector(dim)
	for i := range x0 {
		x0[i] = 0.5
	}
	trueGrad := x0.Sub(anchor).Scale(2)

	// LOESS over a pooled history of nearby samples.
	pool := 6 * dim
	xs := make([]linalg.Vector, pool)
	fs := make([][]float64, pool)
	for i := 0; i < pool; i++ {
		x := x0.Clone()
		for j := range x {
			x[j] += (rng.Float64() - 0.5) * 0.3
		}
		xs[i] = x
		fs[i] = eval(x)
	}
	loessJac, err := pald.LoessJacobian(xs, fs, x0, 0.9)
	if err != nil {
		return nil, err
	}
	fd, err := pald.NewFiniteDifference(dim, 0.02, func(x linalg.Vector) ([]float64, error) {
		return eval(x), nil
	})
	if err != nil {
		return nil, err
	}
	fdJac, err := fd.Jacobian(x0, 1)
	if err != nil {
		return nil, err
	}
	return &GradientAblationResult{
		LoessCosine: cosine(loessJac.Row(0), trueGrad),
		FDCosine:    cosine(fdJac.Row(0), trueGrad),
		LoessEvals:  pool,
		FDEvals:     2 * dim,
	}, nil
}

func cosine(a, b linalg.Vector) float64 {
	na, nb := a.Norm(), b.Norm()
	if na < 1e-12 || nb < 1e-12 {
		return 0
	}
	return a.Dot(b) / (na * nb)
}

// Render prints the comparison.
func (r *GradientAblationResult) Render() string {
	return fmt.Sprintf(`Ablation: gradient estimation under noise
LOESS cosine similarity   %.3f  (%d pooled evaluations, reused across iterations)
central-diff cosine       %.3f  (%d fresh evaluations per gradient)
`, r.LoessCosine, r.LoessEvals, r.FDCosine, r.FDEvals)
}

// ProxyCounterexampleResult demonstrates §6.3's weighted-sum failure.
type ProxyCounterexampleResult struct {
	WeightedSumPick []float64
	PALDPick        []float64
	Targets         []float64
	WeightedSumFeasible,
	PALDFeasible bool
}

// ProxyCounterexample scores the paper's two candidate QS vectors (5,5)
// and (0,7) against r = (6,6) under both orderings.
func ProxyCounterexample() *ProxyCounterexampleResult {
	feasible := []float64{5, 5}
	infeasible := []float64{0, 7}
	targets := []pald.Target{{R: 6, Constrained: true}, {R: 6, Constrained: true}}
	res := &ProxyCounterexampleResult{Targets: []float64{6, 6}}
	// Weighted sum: plain sum comparison.
	if sum(infeasible) < sum(feasible) {
		res.WeightedSumPick = infeasible
	} else {
		res.WeightedSumPick = feasible
	}
	if pald.Better(feasible, infeasible, targets, nil, 0.5) {
		res.PALDPick = feasible
	} else {
		res.PALDPick = infeasible
	}
	res.WeightedSumFeasible = pald.MaxRegret(res.WeightedSumPick, targets) == 0
	res.PALDFeasible = pald.MaxRegret(res.PALDPick, targets) == 0
	return res
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Render prints the counterexample outcome.
func (r *ProxyCounterexampleResult) Render() string {
	return fmt.Sprintf(`Ablation: §6.3 scalarization counterexample, r = %v
weighted sum picks %v (feasible: %v)
PALD ordering picks %v (feasible: %v)
`, r.Targets, r.WeightedSumPick, r.WeightedSumFeasible, r.PALDPick, r.PALDFeasible)
}
