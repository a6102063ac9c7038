package whatif

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tempo/internal/cluster"
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

// Scratch is one worker's reusable evaluation state: a cluster.Sim for
// the built-in Schedule Predictor, whose run buffers are kept across
// runs, and the buffer its schedules are digested into for the schedule
// tier. Workers draw one from scratchPool per batch, so steady-state
// candidate scoring performs near-zero heap allocation; sync.Pool drops
// them under memory pressure, bounding retention.
type Scratch struct {
	sim    *cluster.Sim
	digest []uint64
}

var scratchPool = sync.Pool{New: func() any { return &Scratch{sim: cluster.NewSim()} }}

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
	runIndexedScratch(workers, n, false, func(i int, _ *Scratch) { fn(i) })
}

// runIndexedScratch is runIndexed with an optional per-worker Scratch:
// each worker draws one from the shared pool for its whole lifetime and
// returns it when the fan-out drains, so scratch state is reused across
// all of a worker's items without cross-worker sharing. With workers < 2
// the one worker is the calling goroutine.
func runIndexedScratch(workers, n int, pooled bool, fn func(i int, sc *Scratch)) {
	var next atomic.Int64
	work := func() {
		var sc *Scratch
		if pooled {
			sc = scratchPool.Get().(*Scratch)
			defer scratchPool.Put(sc)
		}
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i, sc)
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
// identical to sequential generation.
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
	if workers <= 1 {
		for s := 0; s < samples; s++ {
			genOne(s)
			if errs[s] != nil {
				return nil, errs[s]
			}
		}
		return traces, nil
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
// schedule, then derives the full QS vector from the schedule's records
// (qs.EvalStream, which reads them in place and keeps nothing).
//
// A nil scratch means a custom predictor, which is scored every time.
// Otherwise the prediction runs in the scratch's Sim, and the predicted
// schedule borrows the Sim's record arrays, which the worker's next pair
// overwrites. The Sim digests it into the scratch's buffer; a candidate
// whose digest equals one already scored for the same sample reuses that
// vector through the state's schedule tier, and a miss stores an
// exact-size copy of the digest, never the schedule or the buffer.
//
//tempo:hot
func (m *Model) evalSample(st *searchState, sc *Scratch, trace *workload.Trace, cfg cluster.Config, sample int) ([]float64, error) {
	var sched *cluster.Schedule
	var err error
	if sc != nil {
		sched, err = sc.sim.RunInto(trace, cfg, cluster.Options{Horizon: m.Horizon})
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
	if sc == nil {
		return m.EvaluateSchedule(sched), nil
	}
	var fp uint64
	sc.digest, fp = sc.sim.AppendDigest(sc.digest[:0])
	if vals := st.lookup(sample, fp, sc.digest); vals != nil {
		return vals, nil
	}
	vals := m.EvaluateSchedule(sched)
	st.store(sample, fp, append(make([]uint64, 0, len(sc.digest)), sc.digest...), vals)
	return vals, nil
}
