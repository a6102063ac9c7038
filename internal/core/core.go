// Package core implements Tempo's control loop (§4, Figure 3). The caller
// runs each control interval under Current() and hands the observed task
// schedule to Apply, the only way to advance a Controller: internal/scenario
// emulates the interval live, and crash recovery re-applies a logged
// schedule. Apply evaluates QS metrics for the registered SLO templates,
// reverts when the observation shows a regression, asks the Optimizer
// (PALD) for candidate RM configurations within a bounded distance of the
// current one, scores the candidates in the What-if Model and applies the
// best.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/linalg"
	"tempo/internal/pald"
	"tempo/internal/qs"
)

// Model is the what-if interface the control loop drives: predict the QS
// vector each candidate RM configuration would attain, in one call per
// iteration. fresh[i] and reused[i] report how many predictor runs
// candidate i cost and how many runs were served without simulating
// (cross-tick cache or certificate hits); they feed SearchStats only,
// never the decision. *whatif.Model is the canonical implementation, with
// every prediction bit-identical to an exhaustive EvaluateBatch row.
type Model interface {
	EvaluateSearch(cfgs []cluster.Config) (preds [][]float64, fresh, reused []int, err error)
}

// RevertPolicy selects the regression guard behaviour.
type RevertPolicy int

// Revert policies.
const (
	// RevertOnWorse (default) reverts when the newly observed QS vector is
	// worse than the previous one under PALD's feasibility-first ordering.
	// The paper's literal rule — revert unless the new vector Pareto-
	// dominates the old — reverts almost every step under measurement
	// noise (strict domination in k dimensions is rare); ordering-based
	// comparison keeps the guard's intent, protection against
	// regressions, without freezing the loop.
	RevertOnWorse RevertPolicy = iota
	// RevertOnNonDominance is the paper's literal rule, kept for the
	// revert-guard ablation.
	RevertOnNonDominance
	// RevertOff disables the guard.
	RevertOff
)

// Config configures a Controller.
type Config struct {
	// Space is the normalized RM configuration space.
	Space *cluster.Space
	// Templates are the registered SLOs; their order fixes the QS vector.
	Templates []qs.Template
	// Model predicts QS vectors for candidate configurations, typically a
	// *whatif.Model, which scores the per-iteration candidate set in one
	// (possibly parallel) call.
	Model Model
	// Strategy proposes candidates; nil builds a default PALD optimizer.
	Strategy pald.Strategy
	// Candidates per loop iteration (default 5, as in §8.2).
	Candidates int
	// Revert selects the regression-guard policy.
	Revert RevertPolicy
	// RankRho is the ρ used when ranking what-if candidates with the proxy
	// score (default 0.5).
	RankRho float64
	// PALD tunes the default optimizer when Strategy is nil.
	PALD pald.Options
	// Now supplies wall-clock timestamps for decision-latency accounting
	// (SearchStats.DecisionNanos). nil leaves latencies at zero:
	// deterministic contexts (the scenario golden suite) omit it, the
	// serving layer injects time.Now. Latencies never feed back into the
	// decision, so the injection cannot perturb trajectories.
	Now func() time.Time
}

// SearchStats instruments one iteration's candidate search: how many
// candidates the strategy proposed (plus the incumbent), how many were
// fully scored through the predictor, how many were warm-started entirely
// from the cross-tick cache, and the per-sample simulation counts behind
// those. The serving layer aggregates these into the scored-candidates
// counter and the decision-latency quantiles on /metrics.
type SearchStats struct {
	// Candidates is the size of the scored set: the incumbent plus every
	// proposal.
	Candidates int `json:"candidates"`
	// FullyScored counts candidates that ran the predictor on at least one
	// sample this iteration.
	FullyScored int `json:"fully_scored"`
	// WarmStarted counts candidates scored with zero simulations: every
	// sample served by the cross-tick config tier or by a certificate.
	WarmStarted int `json:"warm_started"`
	// Pruned is always zero: the controller scores every candidate and no
	// longer sets it, and snapshot.bin does not persist it. The field stays
	// because benchmark tooling still reads it.
	Pruned int `json:"pruned"`
	// SimsRun counts the (candidate, sample) pairs whose predictor ran,
	// across the whole decision. SimsReused counts the pairs served
	// without a run: config-tier hits, and pairs a stored certificate
	// proves would schedule exactly as its run did (whatif's certificate
	// tier).
	SimsRun    int `json:"sims_run"`
	SimsReused int `json:"sims_reused"`
	// DecisionNanos is the wall-clock propose→score→select span, when the
	// controller has a clock (Config.Now); zero otherwise.
	DecisionNanos int64 `json:"decision_ns"`
}

// Iteration records one pass of the control loop for reporting.
type Iteration struct {
	// Index is the iteration number, starting at 0 (the initial expert
	// configuration).
	Index int
	// Config is the configuration the interval ran under.
	Config cluster.Config
	// Observed is the QS vector measured on the interval's task schedule.
	Observed []float64
	// Predicted is the what-if QS vector of the configuration chosen for
	// the next interval (nil when the loop kept the current one).
	Predicted []float64
	// Reverted reports whether the guard rolled back this iteration.
	Reverted bool
	// Switched reports whether a new configuration was adopted.
	Switched bool
	// Search instruments the iteration's candidate search. It is
	// diagnostic only — scenario reports exclude it, so goldens are
	// unaffected.
	Search *SearchStats `json:"search,omitempty"`
}

// Controller drives the Tempo control loop.
type Controller struct {
	cfg      Config
	strategy pald.Strategy

	current  cluster.Config
	currentX linalg.Vector

	prevConfig   cluster.Config
	prevObserved []float64
	hasPrev      bool

	targets []pald.Target
	// slos is cfg.Templates compiled once, on the first Apply, for every
	// observation.
	slos *qs.Compiled
	// scales hold one normalization constant per objective, frozen at the
	// first observation. QS metrics have wildly different units (seconds
	// for QS_AJR, fractions for QS_DL/QS_UTIL); every comparison and every
	// sample fed to the optimizer is divided by these so no objective can
	// silently dominate the others. This realizes the paper's note that
	// the c vector is "normalized using any desirable metrics".
	scales []float64
	// steps counts applied iterations and numbers each Iteration. The
	// controller keeps no per-iteration record; its caller does
	// (scenario.Runtime).
	steps int
}

// NewController validates wiring and positions the loop at the initial
// (expert) configuration.
func NewController(cfg Config, initial cluster.Config) (*Controller, error) {
	if cfg.Space == nil {
		return nil, errors.New("core: nil configuration space")
	}
	if len(cfg.Templates) == 0 {
		return nil, errors.New("core: no SLO templates")
	}
	if cfg.Model == nil {
		return nil, errors.New("core: nil what-if model")
	}
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	if cfg.Candidates <= 0 {
		cfg.Candidates = 5
	}
	if cfg.RankRho == 0 {
		cfg.RankRho = 0.5
	}
	strategy := cfg.Strategy
	if strategy == nil {
		targets := make([]pald.Target, len(cfg.Templates))
		opt, err := pald.New(cfg.Space.Dim(), targets, cfg.PALD)
		if err != nil {
			return nil, err
		}
		strategy = opt
	}
	c := &Controller{
		cfg:      cfg,
		strategy: strategy,
		current:  initial.Clone(),
		targets:  make([]pald.Target, len(cfg.Templates)),
	}
	c.currentX = cfg.Space.Encode(c.current)
	for i, t := range cfg.Templates {
		if t.HasTarget {
			c.targets[i] = pald.Target{R: t.Target, Constrained: true}
		}
	}
	return c, nil
}

// Current returns the configuration the next interval will run under.
func (c *Controller) Current() cluster.Config { return c.current.Clone() }

// Targets returns the live constraint set (fixed template targets plus
// ratcheted best-effort bounds).
func (c *Controller) Targets() []pald.Target {
	return append([]pald.Target(nil), c.targets...)
}

// Apply advances the loop one iteration on the schedule observed under
// Current(): guard → ratchet targets → propose → what-if → apply. Nothing
// else advances the controller; live ticks apply a fresh observation,
// crash recovery a logged one.
func (c *Controller) Apply(sched *cluster.Schedule) (Iteration, error) {
	if c.slos == nil {
		c.slos = qs.Compile(c.cfg.Templates)
	}
	observed := c.slos.Eval(sched, 0, sched.Horizon+time.Nanosecond)
	it := Iteration{Index: c.steps, Config: c.current.Clone(), Observed: observed}
	if c.scales == nil {
		c.scales = make([]float64, len(observed))
		for i, v := range observed {
			s := math.Abs(v)
			if c.cfg.Templates[i].HasTarget {
				s = math.Max(s, math.Abs(c.cfg.Templates[i].Target))
			}
			if s < 1e-9 {
				s = 1
			}
			c.scales[i] = s
		}
	}

	// Revert guard (§4): compare against the previous interval's
	// observation and roll back on regression.
	if c.hasPrev && c.shouldRevert(observed) {
		c.current = c.prevConfig.Clone()
		c.currentX = c.cfg.Space.Encode(c.current)
		it.Reverted = true
	}

	// Ratchet best-effort targets: the paper uses the QS value attained at
	// the current configuration as r_i for the next iteration (§6.1).
	for i, t := range c.cfg.Templates {
		if t.HasTarget {
			continue
		}
		if !c.targets[i].Constrained || observed[i] < c.targets[i].R {
			c.targets[i] = pald.Target{R: observed[i], Constrained: true}
		}
	}
	normTargets := c.normalizedTargets()
	if opt, ok := c.strategy.(*pald.Optimizer); ok {
		if err := opt.SetTargets(normTargets); err != nil {
			return Iteration{}, err
		}
	}
	if err := c.strategy.Observe(c.currentX, c.normalize(observed)); err != nil {
		return Iteration{}, err
	}

	// Propose candidates, then score the current configuration and every
	// candidate in one what-if call: the evaluations are independent, so
	// the model fans them out across its worker pool.
	var searchStart time.Time
	if c.cfg.Now != nil {
		searchStart = c.cfg.Now()
	}
	cands, err := c.strategy.Propose(c.currentX, c.normalize(observed), c.cfg.Candidates)
	if err != nil {
		return Iteration{}, fmt.Errorf("core: proposing candidates: %w", err)
	}
	configs := make([]cluster.Config, 0, len(cands)+1)
	configs = append(configs, c.current)
	for _, x := range cands {
		configs = append(configs, c.cfg.Space.Decode(x))
	}
	preds, stats, err := c.scoreCandidates(configs)
	if err != nil {
		return Iteration{}, fmt.Errorf("core: what-if scoring: %w", err)
	}
	bestX := c.currentX
	bestPred := preds[0]
	switched := false
	for i, x := range cands {
		pred := preds[i+1]
		// Feed predicted samples back to the strategy too: cheap gradient
		// information, exactly what Steps (5)-(7) of Figure 3 circulate (a
		// no-op for the model-free baselines).
		if err := c.strategy.Observe(x, c.normalize(pred)); err != nil {
			return Iteration{}, err
		}
		if pald.Better(c.normalize(pred), c.normalize(bestPred), normTargets, nil, c.cfg.RankRho) {
			bestX, bestPred, switched = x, pred, true
		}
	}
	if c.cfg.Now != nil {
		stats.DecisionNanos = c.cfg.Now().Sub(searchStart).Nanoseconds()
	}
	it.Search = stats
	if switched {
		c.prevConfig = it.Config.Clone()
		c.current = c.cfg.Space.Decode(bestX)
		c.currentX = bestX.Clone()
		it.Predicted = bestPred
		it.Switched = true
	} else {
		c.prevConfig = c.current.Clone()
	}
	c.prevObserved = observed
	c.hasPrev = true
	c.steps++
	return it, nil
}

// scoreCandidates resolves the QS prediction for every configuration
// (configs[0] is the incumbent) in one model call and returns the
// iteration's search statistics alongside.
func (c *Controller) scoreCandidates(configs []cluster.Config) ([][]float64, *SearchStats, error) {
	preds, fresh, reused, err := c.cfg.Model.EvaluateSearch(configs)
	if err != nil {
		return nil, nil, err
	}
	stats := &SearchStats{Candidates: len(configs)}
	for i := range configs {
		if fresh[i] > 0 {
			stats.FullyScored++
		} else {
			stats.WarmStarted++
		}
		stats.SimsRun += fresh[i]
		stats.SimsReused += reused[i]
	}
	return preds, stats, nil
}

// shouldRevert applies the configured guard policy.
func (c *Controller) shouldRevert(observed []float64) bool {
	switch c.cfg.Revert {
	case RevertOff:
		return false
	case RevertOnNonDominance:
		return !qs.Dominates(observed, c.prevObserved)
	default: // RevertOnWorse
		return pald.Better(c.normalize(c.prevObserved), c.normalize(observed), c.normalizedTargets(), nil, c.cfg.RankRho)
	}
}

// normalize divides a QS vector by the per-objective scales.
func (c *Controller) normalize(v []float64) []float64 {
	if c.scales == nil {
		return v
	}
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] / c.scales[i]
	}
	return out
}

// normalizedTargets returns the live constraint set in normalized units.
func (c *Controller) normalizedTargets() []pald.Target {
	out := make([]pald.Target, len(c.targets))
	for i, t := range c.targets {
		out[i] = t
		if c.scales != nil && t.Constrained {
			out[i].R = t.R / c.scales[i]
		}
	}
	return out
}
