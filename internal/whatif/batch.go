package whatif

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

// DefaultParallelism returns the worker count that saturates the host: one
// per available CPU. It is the single source of the "0 means all CPUs"
// policy the command-line flags and the root package share.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// EvaluateBatch predicts the QS vector for every configuration, each
// averaged over the model's sample count. The (configuration, sample)
// pairs are independent, so with Parallelism > 1 they are fanned out over
// a worker pool; the reduction runs in sample order afterwards, so the
// returned vectors are bit-identical to sequential evaluation. Row i of
// the result corresponds to cfgs[i].
//
// It is EvaluateSearch without memory: the same engine scores the pairs
// against a state that dies with the call, so EvaluateBatch is stateless
// and safe for concurrent use.
func (m *Model) EvaluateBatch(cfgs []cluster.Config) ([][]float64, error) {
	preds, _, _, err := m.evaluate(&searchState{}, cfgs)
	return preds, err
}

// simPool holds the workers' cluster.Sims for the built-in Schedule
// Predictor, whose run buffers are kept across runs. Workers draw one per
// fan-out, so steady-state candidate scoring performs near-zero heap
// allocation; sync.Pool drops them under memory pressure, bounding
// retention.
var simPool = sync.Pool{New: func() any { return cluster.NewSim() }}

// workersFor clamps the model's parallelism to the item count; values
// below 2 mean "run on the calling goroutine".
func workersFor(parallelism, items int) int {
	if parallelism > items {
		return items
	}
	return parallelism
}

// runIndexed fans fn(0..n-1) out over a worker pool, work-stealing from a
// shared atomic counter: items vary wildly in cost (candidate
// configurations change queueing behaviour; workload draws vary in size),
// so static striping would leave workers idle. Callers record results and
// errors by index, which keeps their aggregation order deterministic.
func runIndexed(workers, n int, fn func(i int)) {
	runIndexedSim(workers, n, false, func(i int, _ *cluster.Sim) { fn(i) })
}

// runIndexedSim is runIndexed with an optional per-worker Sim: each
// worker draws one from simPool for its whole lifetime and returns it
// when the fan-out drains, so run buffers are reused across all of a
// worker's items without cross-worker sharing. With workers < 2 the one
// worker is the calling goroutine.
func runIndexedSim(workers, n int, pooled bool, fn func(i int, sm *cluster.Sim)) {
	var next atomic.Int64
	work := func() {
		var sm *cluster.Sim
		if pooled {
			sm = simPool.Get().(*cluster.Sim)
			defer simPool.Put(sm)
		}
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i, sm)
		}
	}
	if workers <= 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// genSamples draws the batch's sample traces, one per sample index. The
// traces are shared read-only by every candidate and retained together for
// the batch's lifetime — fine for the control loop's small sample counts;
// a Sensitivity sweep over S draws holds S traces at once. Samples are
// independent, so with workers > 1 they are drawn concurrently; storage is
// by index and the winning error is the lowest sample's, so the result is
// the same for every worker count.
func (m *Model) genSamples(samples, workers int) ([]*workload.Trace, error) {
	traces := make([]*workload.Trace, samples)
	errs := make([]error, samples)
	genOne := func(s int) {
		trace, err := m.Gen(s)
		switch {
		case err != nil:
			errs[s] = fmt.Errorf("generating sample %d: %w", s, err)
		case trace == nil:
			errs[s] = fmt.Errorf("generating sample %d: generator returned a nil trace", s)
		default:
			traces[s] = trace
		}
	}
	runIndexed(workers, samples, genOne)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return traces, nil
}

// evalSample scores cfg on one workload sample: it predicts the task
// schedule, then evaluates set, the compiled templates, over the
// schedule's records in place.
//
// A nil Sim means a custom predictor. Otherwise the prediction runs in
// sm, and the predicted schedule borrows its record arrays, which the
// worker's next pair overwrites: evaluation is done with them before
// then.
//
//tempo:hot
func (m *Model) evalSample(set *qs.Compiled, sm *cluster.Sim, trace *workload.Trace, cfg cluster.Config, sample int) ([]float64, error) {
	var sched *cluster.Schedule
	var err error
	if sm != nil {
		sched, err = sm.RunInto(trace, cfg, cluster.Options{Horizon: m.Horizon})
	} else {
		sched, err = m.Predict(trace, cfg, m.Horizon)
	}
	if err != nil {
		//tempolint:ignore allocdiscipline cold error exit, never on the scored pair path
		return nil, fmt.Errorf("predicting sample %d: %w", sample, err)
	}
	if sched == nil {
		//tempolint:ignore allocdiscipline cold error exit, never on the scored pair path
		return nil, fmt.Errorf("predicting sample %d: predictor returned a nil schedule", sample)
	}
	return set.Eval(sched, 0, sched.Horizon+time.Nanosecond), nil
}
