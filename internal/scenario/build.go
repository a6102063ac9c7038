package scenario

import (
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

	// controller is nil when the spec disables the control loop. Only
	// Apply drives it, after handing the model its samples.
	controller *core.Controller
	env        *runEnv
	// slos is Templates compiled once, at Build: the set never changes
	// for a runtime's life (see EvalQS).
	slos *qs.Compiled
	// iterations and schedules grow together, one entry per applied tick.
	iterations []IterationReport
	schedules  []*cluster.Schedule
	// lastSearch is the last Apply's search statistics: nil when the
	// controller is disabled or nothing has been applied since Build.
	lastSearch *core.SearchStats
	// model is the controller's What-if Model (nil when the controller is
	// disabled); Apply hands it the samples before each decision.
	model *whatif.Model
	// samples are the what-if workload samples every model of the
	// runtime scores, drawn on first use (see whatIfSamples).
	samples []*workload.Trace
}

// Build materializes a spec into a runnable scenario. It shares one pass
// with Validate (compile), which builds the profiles, templates and initial
// configuration; Build adds the trace, the protocol and the controller.
func Build(spec *Spec, opts Options) (*Runtime, error) {
	rt, err := spec.compile()
	if err != nil {
		return nil, err
	}
	horizon := spec.Horizon()
	if spec.Replay {
		horizon = rt.Interval
	}
	rt.Trace, err = workload.Generate(rt.Profiles, workload.GenerateOptions{
		Horizon: horizon,
		Seed:    spec.Seed + seedTrace,
		Name:    spec.Name,
	})
	if err != nil {
		return nil, err
	}
	noiseSeed := spec.Seed + seedWindowNoise
	if spec.Replay {
		noiseSeed = spec.Seed + seedReplayNoise
	}
	rt.env = &runEnv{trace: rt.Trace, replay: spec.Replay, seed: spec.Seed, changes: spec.CapacityChanges, noise: spec.noiseModel(noiseSeed)}
	rt.slos = qs.Compile(rt.Templates)
	if spec.Controller.Disabled {
		return rt, nil
	}

	rt.model = rt.whatIfModel(opts.Parallelism, nil)

	maxStep := spec.Controller.MaxStep
	if maxStep == 0 {
		maxStep = 0.2
	}
	var coreModel core.Model = rt.model
	if opts.ExhaustiveSearch {
		coreModel = &exhaustiveModel{m: rt.model}
	}
	rt.controller, err = core.NewController(core.Config{
		Space:      cluster.DefaultSpace(spec.Capacity, spec.TenantNames()),
		Templates:  rt.Templates,
		Model:      coreModel,
		Candidates: spec.Controller.Candidates,
		Strategy:   opts.Strategy,
		Revert:     revertPolicies[spec.Controller.Revert],
		PALD:       pald.Options{Seed: spec.Seed + seedPALD, MaxStep: maxStep},
		Now:        opts.Clock,
	}, rt.Initial)
	if err != nil {
		return nil, err
	}
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
		fresh[i] = len(e.m.Traces)
	}
	return preds, fresh, make([]int, len(cfgs)), nil
}

// NewWhatIfModel builds a What-if Model wired exactly the way the
// scenario's controller uses one (see whatIfModel), scoring the runtime's
// samples. parallelism caps the worker pool (<= 0 means one worker per
// CPU); results are bit-identical for every setting. Each call returns an
// independent model, so serving-layer what-if probes share no scoring
// state with the controller's own model; they share only the read-only
// sample traces.
func (rt *Runtime) NewWhatIfModel(parallelism int) (*whatif.Model, error) {
	traces, err := rt.whatIfSamples()
	if err != nil {
		return nil, err
	}
	return rt.whatIfModel(parallelism, traces), nil
}

// whatIfModel builds a What-if Model over the scenario's (validated)
// templates and the given samples: in replay mode its horizon is clipped
// to the control interval, in windowed mode every job runs to completion.
func (rt *Runtime) whatIfModel(parallelism int, traces []*workload.Trace) *whatif.Model {
	if parallelism <= 0 {
		parallelism = whatif.DefaultParallelism()
	}
	model := &whatif.Model{Templates: rt.Templates, Traces: traces, Parallelism: parallelism}
	if rt.Spec.Replay {
		model.Horizon = rt.Interval // match the observation window exactly
	}
	return model
}

// whatIfSamples returns the workload samples the runtime's what-if models
// score: the scenario trace in replay mode, or WhatIfSamples (default 1)
// interval-length draws from the tenant profiles in windowed mode, seeded
// from Spec.Seed. They are drawn on first use, not at Build, so building
// or resuming a runtime that applies no tick draws nothing.
func (rt *Runtime) whatIfSamples() ([]*workload.Trace, error) {
	var err error
	switch {
	case rt.samples != nil:
	case rt.Spec.Replay:
		rt.samples = []*workload.Trace{rt.Trace}
	default:
		rt.samples, err = whatif.Draw(rt.Profiles, rt.Interval, rt.Spec.Seed+seedWhatIfSample, max(rt.Spec.Controller.WhatIfSamples, 1))
	}
	return rt.samples, err
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
