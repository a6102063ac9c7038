package scenario

import (
	"fmt"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/core"
	"tempo/internal/pald"
	"tempo/internal/qs"
	"tempo/internal/whatif"
	"tempo/internal/workload"
)

// Derived-seed offsets. Every random stream in a scenario run is a fixed
// function of Spec.Seed; these offsets match the wiring the §8.2
// experiments used before they were re-expressed as scenarios, so the
// experiment trajectories are bit-identical across the refactor.
const (
	seedTrace        = 977 // workload trace synthesis
	seedReplayNoise  = 13  // emulation noise, replay protocol
	seedWindowNoise  = 11  // emulation noise, windowed protocol
	seedPALD         = 29  // optimizer exploration
	seedWhatIfSample = 101 // per-sample what-if draws, windowed protocol
)

// Options are runtime knobs that do not change a scenario's trajectory.
type Options struct {
	// Parallelism caps the What-if Model's worker pool; 0 means one worker
	// per CPU. Reports are bit-identical for every setting.
	Parallelism int
	// Strategy overrides the optimizer (nil builds the default PALD
	// optimizer). Used by the experiment harness's strategy ablations.
	Strategy pald.Strategy
	// Clock supplies wall-clock timestamps for the controller's
	// decision-latency stats (core.SearchStats.DecisionNanos). nil keeps
	// decision latencies at zero; latencies never influence decisions, so
	// reports are bit-identical either way. The serving layer passes
	// time.Now.
	Clock func() time.Time
	// ExhaustiveSearch scores every candidate through the what-if model's
	// exhaustive batch path instead of its incremental search — no
	// warm-starting. Warm starts reuse only exact-verified scores, so
	// reports are bit-identical with or without them; the parity
	// regression suite runs every committed scenario both ways to keep
	// that proof honest.
	ExhaustiveSearch bool
}

// Runtime is a built scenario, ready to run: the materialized workload,
// templates, observation protocol, and (unless disabled) the controller.
type Runtime struct {
	Spec      *Spec
	Interval  time.Duration
	Templates []qs.Template
	Profiles  []workload.TenantProfile
	// Trace is the generated workload: one control interval in replay mode,
	// the full horizon in windowed mode.
	Trace *workload.Trace
	// Initial is the RM configuration the run starts from.
	Initial cluster.Config
	// Controller is nil when the spec disables the control loop.
	Controller *core.Controller

	env *runEnv
	// iterations and schedules grow together, one entry per applied tick.
	iterations []IterationReport
	schedules  []*cluster.Schedule
	// lastSearch is the last Apply's search statistics: nil when the
	// controller is disabled or nothing has been applied since Build.
	lastSearch *core.SearchStats
}

// Build materializes a validated spec into a runnable scenario.
func Build(spec *Spec, opts Options) (*Runtime, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	interval := spec.Interval()
	tenants := spec.ExpandedTenants()
	profiles := make([]workload.TenantProfile, 0, len(tenants))
	for i := range tenants {
		p, err := tenants[i].Materialize()
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, p)
	}
	templates := make([]qs.Template, 0, len(spec.SLOs))
	for i := range spec.SLOs {
		t, err := spec.SLOs[i].Template()
		if err != nil {
			return nil, err
		}
		templates = append(templates, t)
	}

	horizon := spec.Horizon()
	if spec.Replay {
		horizon = interval
	}
	trace, err := workload.Generate(profiles, workload.GenerateOptions{
		Horizon: horizon,
		Seed:    spec.Seed + seedTrace,
		Name:    spec.Name,
	})
	if err != nil {
		return nil, err
	}
	initial, err := spec.Initial.Config(spec.Capacity, spec.TenantNames())
	if err != nil {
		return nil, err
	}

	env := &runEnv{trace: trace, replay: spec.Replay, seed: spec.Seed, changes: spec.CapacityChanges}
	if spec.Replay {
		env.noise = spec.noiseModel(spec.Seed + seedReplayNoise)
	} else {
		env.noise = spec.noiseModel(spec.Seed + seedWindowNoise)
	}
	rt := &Runtime{
		Spec:      spec,
		Interval:  interval,
		Templates: templates,
		Profiles:  profiles,
		Trace:     trace,
		Initial:   initial,
		env:       env,
	}
	if spec.Controller.Disabled {
		return rt, nil
	}

	model, err := rt.NewWhatIfModel(opts.Parallelism)
	if err != nil {
		return nil, err
	}

	maxStep := spec.Controller.MaxStep
	if maxStep == 0 {
		maxStep = 0.2
	}
	var revert core.RevertPolicy
	switch spec.Controller.Revert {
	case "", "on-worse":
		revert = core.RevertOnWorse
	case "non-dominance":
		revert = core.RevertOnNonDominance
	case "off":
		revert = core.RevertOff
	default:
		return nil, fmt.Errorf("scenario %s: unknown revert policy %q", spec.Name, spec.Controller.Revert)
	}
	var coreModel core.Model = model
	if opts.ExhaustiveSearch {
		coreModel = &exhaustiveModel{m: model}
	}
	ctl, err := core.NewController(core.Config{
		Space:      cluster.DefaultSpace(spec.Capacity, spec.TenantNames()),
		Templates:  templates,
		Model:      coreModel,
		Candidates: spec.Controller.Candidates,
		Strategy:   opts.Strategy,
		Revert:     revert,
		PALD:       pald.Options{Seed: spec.Seed + seedPALD, MaxStep: maxStep},
		Now:        opts.Clock,
	}, initial)
	if err != nil {
		return nil, err
	}
	rt.Controller = ctl
	return rt, nil
}

// exhaustiveModel scores every candidate through the exhaustive
// EvaluateBatch path of a *whatif.Model — no cross-tick warm-starting —
// and reports each as fully simulated. It exists for
// Options.ExhaustiveSearch.
type exhaustiveModel struct {
	m *whatif.Model
}

// EvaluateSearch implements core.Model.
func (e *exhaustiveModel) EvaluateSearch(cfgs []cluster.Config) ([][]float64, []int, []int, error) {
	preds, err := e.m.EvaluateBatch(cfgs)
	if err != nil {
		return nil, nil, nil, err
	}
	fresh := make([]int, len(cfgs))
	for i := range fresh {
		fresh[i] = max(e.m.Samples, 1)
	}
	return preds, fresh, make([]int, len(cfgs)), nil
}

// NewWhatIfModel builds a What-if Model wired exactly the way the
// scenario's controller uses one: replaying the scenario trace in replay
// mode (horizon clipped to the control interval), or synthesizing fresh
// interval-length draws from the tenant profiles in windowed mode, with
// every seed derived from Spec.Seed. parallelism caps the worker pool
// (<= 0 means one worker per CPU); results are bit-identical for every
// setting. Each call returns an independent model, so serving-layer
// what-if probes share nothing with the controller's own scoring.
func (rt *Runtime) NewWhatIfModel(parallelism int) (*whatif.Model, error) {
	spec := rt.Spec
	var model *whatif.Model
	var err error
	if spec.Replay {
		model, err = whatif.FromTrace(rt.Templates, rt.Trace)
		if err != nil {
			return nil, err
		}
		model.Horizon = rt.Interval // match the observation window exactly
	} else {
		model, err = whatif.FromProfiles(rt.Templates, rt.Profiles, rt.Interval, spec.Seed+seedWhatIfSample)
		if err != nil {
			return nil, err
		}
		if spec.Controller.WhatIfSamples > 0 {
			model.Samples = spec.Controller.WhatIfSamples
		}
	}
	if parallelism > 0 {
		model.Parallelism = parallelism
	} else {
		model.Parallelism = whatif.DefaultParallelism()
	}
	return model, nil
}

// noiseModel materializes the noise spec with the given stream seed, or nil
// for a deterministic run.
func (s *Spec) noiseModel(seed int64) *cluster.NoiseModel {
	if s.Noise == nil {
		return nil
	}
	n := cluster.DefaultNoise(seed)
	if s.Noise.DurationSigma != nil {
		n.DurationSigma = *s.Noise.DurationSigma
	}
	if s.Noise.FailureProb != nil {
		n.FailureProb = *s.Noise.FailureProb
	}
	if s.Noise.JobKillProb != nil {
		n.JobKillProb = *s.Noise.JobKillProb
	}
	return n
}

// runEnv is a scenario's observation protocol: it emulates one control
// interval of the system under management. A replay scenario runs the
// same interval-long trace every tick with fresh noise — the protocol of
// the §8.2.1/§8.2.2 experiments, where one production workload is
// replayed under each candidate configuration, so QS changes across ticks
// come from configuration changes plus noise. A windowed scenario runs
// consecutive interval-long windows of the full-horizon trace — the
// adaptivity setup of §8.2.3, where each tick sees the workload drift.
type runEnv struct {
	trace  *workload.Trace
	replay bool
	// noise is the base emulation noise (nil: deterministic); each tick
	// runs it with a seed derived from the tick index.
	noise *cluster.NoiseModel
	// seed is Spec.Seed, which replay mixes into the per-tick noise seed.
	seed int64
	// changes override the configuration's capacity from their iteration on.
	changes []CapacityChange
}

// capacityAt returns the effective cluster capacity at the iteration, or 0
// when no change applies.
func (e *runEnv) capacityAt(iteration int) int {
	capacity := 0
	for _, cc := range e.changes {
		if cc.AtIteration <= iteration {
			capacity = cc.Capacity
		}
	}
	return capacity
}

// observe runs control interval tick under cfg and returns its schedule.
func (e *runEnv) observe(cfg cluster.Config, interval time.Duration, tick int) (*cluster.Schedule, error) {
	if c := e.capacityAt(tick); c > 0 && c != cfg.TotalContainers {
		cfg = cfg.Clone()
		cfg.TotalContainers = c
	}
	trace, noiseSeed := e.trace, e.seed+int64(tick)*3571
	if !e.replay {
		from := time.Duration(tick) * interval
		trace, noiseSeed = e.trace.Window(from, from+interval), int64(tick)*6151
	}
	opts := cluster.Options{Horizon: interval}
	if e.noise != nil {
		n := *e.noise
		n.Seed += noiseSeed
		opts.Noise = &n
	}
	return cluster.Run(trace, cfg, opts)
}
