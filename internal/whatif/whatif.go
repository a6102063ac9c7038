// Package whatif implements Tempo's What-if Model (§7): it answers "what
// would the QS vector be if the RM ran configuration x on workload w?" by
// running the fast Schedule Predictor on each of the model's sample
// traces and evaluating QS over the predicted schedules. The samples are
// an input: one replayed historical trace, or draws from a statistical
// model of the tenants (Draw) — the two modes of §7.1. The Optimizer
// calls it for every candidate configuration it explores; scoring reuses
// exact-verified QS vectors per configuration and per certified run,
// never pinning a schedule, and evaluates every simulated schedule
// through templates compiled once (search.go).
package whatif

import (
	"errors"
	"fmt"
	"math"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

// Model evaluates QS vectors for candidate RM configurations.
type Model struct {
	// Templates define the QS vector's components, in order.
	Templates []qs.Template
	// Traces are the workload samples every evaluation averages over,
	// realizing the expectation E[f(x; w)] of problem (SP1); the sample
	// count is len(Traces), at least 1. The traces are shared read-only
	// by every candidate and, with Parallelism > 1, by concurrent
	// workers: nobody may mutate one. Replacing an entry with a trace of
	// different content drops the cached vectors of that sample.
	Traces []*workload.Trace
	// Horizon optionally caps each predicted run; zero runs every job to
	// completion.
	Horizon time.Duration
	// Parallelism caps the worker goroutines Evaluate, EvaluateBatch, and
	// Sensitivity fan out over (configuration, sample) pairs — the paper's
	// §7 observation that what-if evaluations are embarrassingly parallel.
	// Values below 2 evaluate sequentially on the calling goroutine. The
	// QS vectors are bit-identical for every setting; only wall-clock time
	// changes.
	Parallelism int

	// search is the scoring engine's state as EvaluateSearch keeps it
	// across ticks, lazily initialized. A pointer, so value copies of a
	// Model share it — safe, because every cached entry is verified with an
	// exact equality check before reuse. Every other entry point runs the
	// same engine against a state of its own that dies with the call.
	search *searchState
}

// New returns a model over the given templates and sample traces. The
// traces are checked when the model scores, since Traces may be set
// later.
func New(templates []qs.Template, traces []*workload.Trace) (*Model, error) {
	if len(templates) == 0 {
		return nil, errors.New("whatif: no QS templates")
	}
	for _, t := range templates {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	return &Model{Templates: templates, Traces: traces}, nil
}

// FromTrace returns a model that replays one fixed trace — the "replaying
// historical traces" mode.
func FromTrace(templates []qs.Template, trace *workload.Trace) (*Model, error) {
	if trace == nil {
		return nil, errors.New("whatif: nil trace")
	}
	return New(templates, []*workload.Trace{trace})
}

// FromProfiles returns a model over n workloads drawn from statistical
// tenant profiles (Draw) — the "statistical model" mode, which §7.1 notes
// can also test sensitivity and extended characteristics.
func FromProfiles(templates []qs.Template, profiles []workload.TenantProfile, horizon time.Duration, seed int64, n int) (*Model, error) {
	traces, err := Draw(profiles, horizon, seed, n)
	if err != nil {
		return nil, err
	}
	return New(templates, traces)
}

// Draw synthesizes n independent workloads of the given horizon from the
// tenant profiles. Sample s is named "whatif-s" and seeded by mixing s
// into seed, so a draw is a pure function of its arguments and two draws
// of one sample are equal traces.
func Draw(profiles []workload.TenantProfile, horizon time.Duration, seed int64, n int) ([]*workload.Trace, error) {
	if n < 1 {
		return nil, fmt.Errorf("whatif: drawing %d samples, want at least 1", n)
	}
	traces := make([]*workload.Trace, n)
	for s := range traces {
		tr, err := workload.Generate(profiles, workload.GenerateOptions{
			Horizon: horizon,
			Seed:    mixSeed(seed, s),
			Name:    fmt.Sprintf("whatif-%d", s),
		})
		if err != nil {
			return nil, fmt.Errorf("whatif: drawing sample %d: %w", s, err)
		}
		traces[s] = tr
	}
	return traces, nil
}

// mixSeed derives the per-sample workload seed from the base seed with a
// splitmix64 finalizer. A plain linear stride (baseSeed + sample*k) lets
// distinct base seeds alias the same sample trace — base 0 at sample 1
// equals base k at sample 0 — so two draws meant to be independent would
// silently share workloads.
func mixSeed(base int64, sample int) int64 {
	z := uint64(base) + (uint64(sample)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Evaluate predicts the QS vector under cfg, averaged over the model's
// samples. With Parallelism > 1 the samples are scored concurrently; the
// result is bit-identical either way.
func (m *Model) Evaluate(cfg cluster.Config) ([]float64, error) {
	rows, err := m.EvaluateBatch([]cluster.Config{cfg})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// Sensitivity evaluates cfg on each of the model's samples and returns
// the per-objective mean and standard deviation of the QS vector — §7.1's
// "generate multiple synthetic workloads with the same distribution in
// order to test the sensitivity of parameter settings". A configuration
// whose QS varies wildly across draws is fragile even if its mean looks
// good. It needs at least two samples.
func (m *Model) Sensitivity(cfg cluster.Config) (mean, stddev []float64, err error) {
	n := len(m.Traces)
	if n < 2 {
		return nil, nil, fmt.Errorf("whatif: sensitivity needs at least 2 samples, the model has %d", n)
	}
	vecs, _, _, err := m.score(&searchState{}, []cluster.Config{cfg})
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
