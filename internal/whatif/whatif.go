// Package whatif implements Tempo's What-if Model (§7): it answers "what
// would the QS vector be if the RM ran configuration x on workload w?" by
// composing the Workload Generator, the fast Schedule Predictor, and QS
// evaluation. The Optimizer calls it for every candidate configuration it
// explores; scoring reuses exact-verified QS vectors per configuration and
// per schedule digest, never pinning a schedule (search.go).
package whatif

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

// Generator produces the workload for one what-if sample. Implementations
// may replay a fixed historical trace (sample index ignored) or synthesize
// workloads with the same statistical characteristics per sample — the
// two modes of §7.1. A batch calls the generator exactly once per sample
// index and shares the returned trace, read-only, across every candidate
// configuration. A generator may return the same trace for an index on
// every call (FromTrace and FromProfiles do; the search state then knows
// it by pointer), so a returned trace must never be mutated by anyone.
type Generator func(sample int) (*workload.Trace, error)

// Predictor turns (workload, configuration) into a task schedule. The
// default is the built-in fast Schedule Predictor; §7.2 notes Tempo can
// instead drive existing RM simulators (Borg, Apollo, Omega, the YARN
// Scheduler Load Simulator, ...) — an adapter for such a simulator
// implements this signature. The trace is shared by every candidate of a
// batch (and, with Parallelism > 1, by concurrent workers): predictors
// must treat it as read-only. A custom predictor is opaque to the scoring
// engine's reuse tiers: it is called, and its schedule scored, per pair.
type Predictor func(trace *workload.Trace, cfg cluster.Config, horizon time.Duration) (*cluster.Schedule, error)

// DefaultPredictor is the built-in time-warp Schedule Predictor.
func DefaultPredictor(trace *workload.Trace, cfg cluster.Config, horizon time.Duration) (*cluster.Schedule, error) {
	return cluster.Run(trace, cfg, cluster.Options{Horizon: horizon})
}

// Model evaluates QS vectors for candidate RM configurations.
type Model struct {
	// Templates define the QS vector's components, in order.
	Templates []qs.Template
	// Gen supplies the workload for each sample.
	Gen Generator
	// Samples is how many workload draws to average per evaluation,
	// realizing the expectation E[f(x; w)] of problem (SP1). Minimum 1.
	Samples int
	// Horizon optionally caps each predicted run; zero runs every job to
	// completion.
	Horizon time.Duration
	// Predict produces the task schedule; nil uses DefaultPredictor.
	Predict Predictor
	// Parallelism caps the worker goroutines Evaluate, EvaluateBatch, and
	// Sensitivity fan out over (configuration, sample) pairs — the paper's
	// §7 observation that what-if evaluations are embarrassingly parallel.
	// Values below 2 evaluate sequentially on the calling goroutine. The
	// QS vectors are bit-identical for every setting; only wall-clock time
	// changes. When Parallelism > 1, Gen and Predict must be safe for
	// concurrent use (the built-in generators and predictor are).
	Parallelism int

	// search is the scoring engine's state as EvaluateSearch keeps it
	// across ticks, lazily initialized. A pointer, so value copies of a
	// Model share it — safe, because every cached entry is verified with an
	// exact equality check before reuse. Every other entry point runs the
	// same engine against a state of its own that dies with the call.
	search *searchState
}

// New returns a model over the given generator.
func New(templates []qs.Template, gen Generator) (*Model, error) {
	if len(templates) == 0 {
		return nil, errors.New("whatif: no QS templates")
	}
	for _, t := range templates {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	if gen == nil {
		return nil, errors.New("whatif: nil workload generator")
	}
	return &Model{Templates: templates, Gen: gen, Samples: 1}, nil
}

// FromTrace returns a model that replays one fixed trace — the "replaying
// historical traces" mode.
func FromTrace(templates []qs.Template, trace *workload.Trace) (*Model, error) {
	if trace == nil {
		return nil, errors.New("whatif: nil trace")
	}
	return New(templates, func(int) (*workload.Trace, error) { return trace, nil })
}

// FromProfiles returns a model that synthesizes a fresh workload per sample
// from statistical tenant profiles — the "statistical model" mode, which
// §7.1 notes can also test sensitivity and extended characteristics.
//
// The generator is a pure function of the sample index (the profiles are
// copied here), so the traces the control loop redraws every tick, the
// indices below the model's Samples, are drawn once and handed back by
// pointer; Sensitivity's draws beyond them are not retained.
func FromProfiles(templates []qs.Template, profiles []workload.TenantProfile, horizon time.Duration, baseSeed int64) (*Model, error) {
	profiles = append([]workload.TenantProfile(nil), profiles...)
	var m *Model
	var drawn sync.Map // sample index -> *workload.Trace
	gen := func(sample int) (*workload.Trace, error) {
		if tr, ok := drawn.Load(sample); ok {
			return tr.(*workload.Trace), nil
		}
		tr, err := workload.Generate(profiles, workload.GenerateOptions{
			Horizon: horizon,
			Seed:    mixSeed(baseSeed, sample),
			Name:    fmt.Sprintf("whatif-%d", sample),
		})
		if err != nil || sample >= max(m.Samples, 1) {
			return tr, err
		}
		first, _ := drawn.LoadOrStore(sample, tr) // racing first draws agree on one pointer
		return first.(*workload.Trace), nil
	}
	m, err := New(templates, gen)
	return m, err
}

// mixSeed derives the per-sample workload seed from the model's base seed
// with a splitmix64 finalizer. A plain linear stride (baseSeed + sample*k)
// lets distinct base seeds alias the same sample trace — base 0 at sample 1
// equals base k at sample 0 — so two models meant to be independent would
// silently share workload draws.
func mixSeed(base int64, sample int) int64 {
	z := uint64(base) + (uint64(sample)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Evaluate predicts the QS vector under cfg, averaged over the model's
// sample count. With Parallelism > 1 the samples are scored concurrently;
// the result is bit-identical either way.
func (m *Model) Evaluate(cfg cluster.Config) ([]float64, error) {
	rows, err := m.EvaluateBatch([]cluster.Config{cfg})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// Sensitivity evaluates cfg over n independent workload draws and returns
// the per-objective mean and standard deviation of the QS vector — §7.1's
// "generate multiple synthetic workloads with the same distribution in
// order to test the sensitivity of parameter settings". A configuration
// whose QS varies wildly across draws is fragile even if its mean looks
// good.
func (m *Model) Sensitivity(cfg cluster.Config, n int) (mean, stddev []float64, err error) {
	if n < 2 {
		return nil, nil, errors.New("whatif: sensitivity needs n >= 2 samples")
	}
	vecs, _, _, err := m.score(&searchState{}, []cluster.Config{cfg}, n)
	if err != nil {
		return nil, nil, err
	}
	k := len(m.Templates)
	sum := make([]float64, k)
	sumSq := make([]float64, k)
	for s := 0; s < n; s++ {
		for i, x := range vecs[s] {
			sum[i] += x
			sumSq[i] += x * x
		}
	}
	mean = make([]float64, k)
	stddev = make([]float64, k)
	for i := 0; i < k; i++ {
		mean[i] = sum[i] / float64(n)
		variance := sumSq[i]/float64(n) - mean[i]*mean[i]
		if variance < 0 {
			variance = 0
		}
		stddev[i] = math.Sqrt(variance)
	}
	return mean, stddev, nil
}

// EvaluateSchedule scores an already-produced schedule against the model's
// templates over [0, horizon]. The control loop uses this to evaluate the
// *observed* task schedule each iteration. Evaluation goes through
// qs.EvalStream, which picks per-template scans or the one-pass
// accumulator by template count; results are identical either way.
func (m *Model) EvaluateSchedule(sched *cluster.Schedule) []float64 {
	return qs.EvalStream(m.Templates, sched, 0, sched.Horizon+time.Nanosecond)
}
