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
// averaged over the model's samples. The (configuration, sample) pairs
// are independent, so with Parallelism > 1 they are fanned out over a
// worker pool; the reduction runs in sample order afterwards, so the
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
// so static striping would leave workers idle. Each worker borrows one
// pooled Sim (cluster.WithSim) for its whole lifetime, so run buffers are
// reused across all of a worker's items without cross-worker sharing.
// Callers record results and errors by index, which keeps their
// aggregation order deterministic. With workers < 2 the one worker is the
// calling goroutine.
func runIndexed(workers, n int, fn func(i int, sm *cluster.Sim)) {
	var next atomic.Int64
	work := func(sm *cluster.Sim) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i, sm)
		}
	}
	if workers <= 1 {
		cluster.WithSim(work)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			cluster.WithSim(work)
		}()
	}
	wg.Wait()
}

// evalSample scores cfg on one workload sample: it predicts the task
// schedule in sm, then evaluates set, the compiled templates, over the
// schedule's records in place. The predicted schedule borrows sm's
// record arrays, which the worker's next pair overwrites: evaluation is
// done with them before then.
//
//tempo:hot
func (m *Model) evalSample(set *qs.Compiled, sm *cluster.Sim, trace *workload.Trace, cfg cluster.Config, sample int) ([]float64, error) {
	sched, err := sm.RunInto(trace, cfg, cluster.Options{Horizon: m.Horizon})
	if err != nil {
		//tempolint:ignore allocdiscipline cold error exit, never on the scored pair path
		return nil, fmt.Errorf("predicting sample %d: %w", sample, err)
	}
	return set.Eval(sched, 0, sched.Horizon+time.Nanosecond), nil
}
