// Package core implements Tempo's control loop (§4, Figure 3): the glue
// that observes the task schedule of the live (here: emulated) cluster,
// evaluates QS metrics for the registered SLO templates, asks the Optimizer
// (PALD) for candidate RM configurations within a bounded distance of the
// current one, scores the candidates in the What-if Model, applies the
// best, and reverts when the next observation shows a regression.
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
	"tempo/internal/workload"
)

// Model is the what-if interface the control loop drives: predict the QS
// vector a candidate RM configuration would attain. *whatif.Model is the
// canonical implementation.
type Model interface {
	Evaluate(cfg cluster.Config) ([]float64, error)
}

// BatchModel is implemented by models that can score many candidate
// configurations in one call — *whatif.Model fans the batch out over a
// worker pool. The controller routes all candidate scoring through it when
// available; plain Model implementations fall back to sequential calls.
type BatchModel interface {
	Model
	EvaluateBatch(cfgs []cluster.Config) ([][]float64, error)
}

// SearchModel is implemented by models that support the controller's
// incremental decision search: cross-tick reuse of candidate scores, with
// fresh[i] / reused[i] reporting how much simulation work candidate i
// actually cost. *whatif.Model implements it; the controller routes
// candidate scoring through it when available and falls back to
// BatchModel/Model otherwise. The contract mirrors
// whatif.(*Model).EvaluateSearch: every prediction is bit-identical to an
// exhaustive EvaluateBatch row.
type SearchModel interface {
	Model
	EvaluateSearch(cfgs []cluster.Config) (preds [][]float64, fresh, reused []int, err error)
}

// scoreBatch scores every configuration through the model, using the batch
// API when the model supports it and a sequential adapter otherwise. Row i
// corresponds to cfgs[i] in both paths.
func scoreBatch(m Model, cfgs []cluster.Config) ([][]float64, error) {
	if bm, ok := m.(BatchModel); ok {
		return bm.EvaluateBatch(cfgs)
	}
	out := make([][]float64, len(cfgs))
	for i := range cfgs {
		v, err := m.Evaluate(cfgs[i])
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Environment is the live system under management: given an RM
// configuration, run one control interval and return the observed task
// schedule. Production deployments would adapt a real RM here; the
// reproduction uses the noisy cluster emulator.
type Environment interface {
	Observe(cfg cluster.Config, interval time.Duration, iteration int) (*cluster.Schedule, error)
}

// EmulatedCluster is the Environment used throughout the evaluation: every
// control interval it synthesizes a fresh workload draw from the tenant
// profiles and replays it on the noisy cluster emulator.
type EmulatedCluster struct {
	// Profiles describe the tenants' workloads.
	Profiles []workload.TenantProfile
	// Noise configures the emulation disturbances; nil means deterministic
	// (useful in tests).
	Noise *cluster.NoiseModel
	// Seed bases the per-iteration workload and noise seeds.
	Seed int64
}

// Observe implements Environment.
func (e *EmulatedCluster) Observe(cfg cluster.Config, interval time.Duration, iteration int) (*cluster.Schedule, error) {
	trace, err := workload.Generate(e.Profiles, workload.GenerateOptions{
		Horizon: interval,
		Seed:    e.Seed + int64(iteration)*104729,
		Name:    fmt.Sprintf("iter-%d", iteration),
	})
	if err != nil {
		return nil, err
	}
	opts := cluster.Options{Horizon: interval}
	if e.Noise != nil {
		n := *e.Noise
		n.Seed = e.Noise.Seed + int64(iteration)*7907
		opts.Noise = &n
	}
	return cluster.Run(trace, cfg, opts)
}

// TraceEnvironment replays consecutive windows of one long recorded trace —
// the setup of the adaptivity experiment (§8.2.3), where each iteration
// sees the workload distribution drift.
type TraceEnvironment struct {
	// Trace is the full recorded workload.
	Trace *workload.Trace
	// Noise configures emulation disturbances (may be nil).
	Noise *cluster.NoiseModel
	// Seed bases per-iteration noise seeds.
	Seed int64
}

// Observe implements Environment.
func (e *TraceEnvironment) Observe(cfg cluster.Config, interval time.Duration, iteration int) (*cluster.Schedule, error) {
	from := time.Duration(iteration) * interval
	win := e.Trace.Window(from, from+interval)
	opts := cluster.Options{Horizon: interval}
	if e.Noise != nil {
		n := *e.Noise
		n.Seed = e.Noise.Seed + int64(iteration)*6151
		opts.Noise = &n
	}
	return cluster.Run(win, cfg, opts)
}

// ReplayEnvironment replays the same recorded trace every control interval
// with fresh noise — the protocol of the §8.2.1/§8.2.2 experiments, where
// one production workload is replayed (via SWIM) under each candidate RM
// configuration. Because the workload is held fixed, QS changes across
// iterations are attributable to configuration changes plus noise.
type ReplayEnvironment struct {
	// Trace is the workload replayed each interval.
	Trace *workload.Trace
	// Noise configures emulation disturbances (may be nil).
	Noise *cluster.NoiseModel
	// Seed bases per-iteration noise seeds.
	Seed int64
}

// Observe implements Environment.
func (e *ReplayEnvironment) Observe(cfg cluster.Config, interval time.Duration, iteration int) (*cluster.Schedule, error) {
	opts := cluster.Options{Horizon: interval}
	if e.Noise != nil {
		n := *e.Noise
		n.Seed = e.Noise.Seed + e.Seed + int64(iteration)*3571
		opts.Noise = &n
	}
	return cluster.Run(e.Trace, cfg, opts)
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
	// *whatif.Model. Implementations that also satisfy BatchModel score the
	// per-iteration candidate set in one (possibly parallel) batch call.
	Model Model
	// Strategy proposes candidates; nil builds a default PALD optimizer.
	Strategy pald.Strategy
	// Environment is the system under management.
	Environment Environment
	// Interval is the control window L (default 30 min).
	Interval time.Duration
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
	// WarmStarted counts candidates resolved entirely from the cross-tick
	// cache — scored, but with zero simulations.
	WarmStarted int `json:"warm_started"`
	// Pruned is always zero: the controller scores every candidate and no
	// longer sets it. The field stays so recorded stats and snapshots keep
	// their shape.
	Pruned int `json:"pruned"`
	// SimsRun and SimsReused count (candidate, sample) predictor runs and
	// cache hits across the whole decision.
	SimsRun    int `json:"sims_run"`
	SimsReused int `json:"sims_reused"`
	// DecisionNanos is the wall-clock propose→score→select span, when the
	// controller has a clock (Config.Now); zero otherwise.
	DecisionNanos int64 `json:"decision_ns"`
}

// clone returns a copy, nil-safe.
func (s *SearchStats) clone() *SearchStats {
	if s == nil {
		return nil
	}
	cp := *s
	return &cp
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
	// scales hold one normalization constant per objective, frozen at the
	// first observation. QS metrics have wildly different units (seconds
	// for QS_AJR, fractions for QS_DL/QS_UTIL); every comparison and every
	// sample fed to the optimizer is divided by these so no objective can
	// silently dominate the others. This realizes the paper's note that
	// the c vector is "normalized using any desirable metrics".
	scales  []float64
	history []Iteration
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
	if cfg.Environment == nil {
		return nil, errors.New("core: nil environment")
	}
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Minute
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

// History returns all recorded iterations.
func (c *Controller) History() []Iteration {
	return append([]Iteration(nil), c.history...)
}

// Step runs one control-loop iteration: observe the next interval in the
// environment, then Apply the schedule.
func (c *Controller) Step() (Iteration, error) {
	iterIdx := len(c.history)
	sched, err := c.cfg.Environment.Observe(c.current, c.cfg.Interval, iterIdx)
	if err != nil {
		return Iteration{}, fmt.Errorf("core: observing interval %d: %w", iterIdx, err)
	}
	return c.Apply(sched)
}

// Apply advances the loop one iteration on the schedule observed under
// Current(): guard → ratchet targets → propose → what-if → apply. Nothing
// else advances the controller — Step applies a fresh observation, crash
// recovery a logged one.
func (c *Controller) Apply(sched *cluster.Schedule) (Iteration, error) {
	observed := qs.EvalStream(c.cfg.Templates, sched, 0, sched.Horizon+time.Nanosecond)
	it := Iteration{Index: len(c.history), Config: c.current.Clone(), Observed: observed}
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
	// candidate in one what-if batch: the evaluations are independent, so a
	// batch-aware model fans them out across its worker pool.
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
	c.history = append(c.history, it)
	return it, nil
}

// scoreCandidates resolves the QS prediction for every configuration
// (configs[0] is the incumbent), routing through the model's incremental
// search when it offers one and the plain batch path otherwise, and
// returns per-iteration search statistics alongside. Both paths return
// bit-identical predictions (the search reuses only exact-verified cache
// entries), so the decision never depends on which one ran.
func (c *Controller) scoreCandidates(configs []cluster.Config) ([][]float64, *SearchStats, error) {
	stats := &SearchStats{Candidates: len(configs)}
	sm, ok := c.cfg.Model.(SearchModel)
	if !ok {
		preds, err := scoreBatch(c.cfg.Model, configs)
		if err != nil {
			return nil, nil, err
		}
		// Per-sample simulation counts are not observable through the
		// plain batch path; only the candidate-level tally is meaningful.
		stats.FullyScored = len(configs)
		return preds, stats, nil
	}
	preds, fresh, reused, err := sm.EvaluateSearch(configs)
	if err != nil {
		return nil, nil, err
	}
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

// Search returns iteration i's search statistics, or nil when the index
// is out of range. The returned struct is shared with the history;
// callers treat it as read-only.
func (c *Controller) Search(i int) *SearchStats {
	if i < 0 || i >= len(c.history) {
		return nil
	}
	return c.history[i].Search
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

// Run executes n iterations and returns the full history.
func (c *Controller) Run(n int) ([]Iteration, error) {
	for i := 0; i < n; i++ {
		if _, err := c.Step(); err != nil {
			return c.History(), err
		}
	}
	return c.History(), nil
}

// Improvement summarizes the loop's effect on one objective: the relative
// change from the first iteration's observation to the mean of the last
// quarter of iterations (positive = QS reduced = SLO improved).
func Improvement(history []Iteration, objective int) float64 {
	if len(history) == 0 {
		return 0
	}
	first := history[0].Observed[objective]
	// Guard before the tail computation: a ~zero first observation makes
	// the relative change undefined no matter what the tail averages to
	// (and for a single-iteration history the tail is just the first
	// observation again), so it short-circuits the whole summary.
	if math.Abs(first) < 1e-12 {
		return 0
	}
	tail := history[(3*len(history))/4:]
	var sum float64
	for _, it := range tail {
		sum += it.Observed[objective]
	}
	last := sum / float64(len(tail))
	return (first - last) / math.Abs(first)
}
