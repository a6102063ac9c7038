// The tick execution path below is part of the deterministic surface:
// a cluster's report bytes must not depend on which worker or shard ran
// its ticks. Wall-clock reads and channel races here are confined to
// operator metrics and shutdown, and each is individually justified.
//
//tempolint:deterministic
package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tempo"
)

// counter is a cheap concurrent event counter.
type counter struct{ n atomic.Int64 }

func (c *counter) add(d int64) { c.n.Add(d) }
func (c *counter) get() int64  { return c.n.Load() }

// tickJob is one queued unit of per-cluster work — a control-loop tick
// or (remove set) the cluster's teardown; the worker answers on reply.
// Routing teardown through the same queue gives Delete the same
// worker-pool bounds as ticks and keeps every mutation of one cluster on
// machinery that respects the cluster mutex.
type tickJob struct {
	cluster *Cluster
	remove  bool
	reply   chan tickResult
}

type tickResult struct {
	it  tempo.ScenarioIteration
	err error
}

// shard owns a slice of the cluster population: a bounded tick queue and
// a fixed worker pool draining it. The pool size bounds the shard's tick
// concurrency regardless of resident clusters or in-flight requests.
type shard struct {
	idx  int
	svc  *Service
	jobs chan tickJob
	quit chan struct{}
	wg   sync.WaitGroup

	ticks       counter
	whatifEvals counter
	// scored and pruned aggregate the controller's per-tick search stats
	// (tempo.SearchStats) over every resident cluster: candidates fully
	// scored through the what-if simulator vs. discarded by the QS lower
	// bound before simulation. Their ratio is the live view of how much
	// work the incremental search is saving.
	scored counter
	pruned counter
	// pending counts jobs enqueued but not yet replied to — the signal
	// Close's bounded drain polls for.
	pending counter
	// shed counts admissions refused because the queue stayed full past
	// the deadline — requests turned away with zero state change.
	shed counter
	lat  latencyRing
	// decLat retains recent controller decision latencies (propose →
	// apply, reported by the session per tick) — the search-phase slice of
	// the tick latency lat measures.
	decLat latencyRing
}

func newShard(idx int, svc *Service, cfg Config) *shard {
	sh := &shard{
		idx:  idx,
		svc:  svc,
		jobs: make(chan tickJob, cfg.QueueDepth),
		quit: svc.quit,
	}
	sh.wg.Add(cfg.WorkersPerShard)
	for i := 0; i < cfg.WorkersPerShard; i++ {
		go sh.worker()
	}
	return sh
}

func (sh *shard) wait() { sh.wg.Wait() }

// tick enqueues one tick for the cluster and waits for a worker to run
// it. A full queue applies backpressure bounded by the caller's context
// deadline and the service's AdmissionTimeout; waiting past either sheds
// the request with ErrOverloaded instead of blocking forever. A closed
// service fails the call instead of hanging.
func (sh *shard) tick(ctx context.Context, c *Cluster) (tempo.ScenarioIteration, error) {
	return sh.run(ctx, tickJob{cluster: c, reply: make(chan tickResult, 1)})
}

// remove enqueues the cluster's teardown and waits for it, under the
// same bounded admission as ticks.
func (sh *shard) remove(ctx context.Context, c *Cluster) error {
	_, err := sh.run(ctx, tickJob{cluster: c, remove: true, reply: make(chan tickResult, 1)})
	return err
}

func (sh *shard) run(ctx context.Context, job tickJob) (tempo.ScenarioIteration, error) {
	sh.pending.add(1)
	// Admission: deadline-bounded. A request shed here has touched no
	// state whatsoever, so the 503 it becomes is always safe to retry.
	actx, cancel := context.WithTimeout(ctx, sh.svc.cfg.AdmissionTimeout)
	defer cancel()
	//tempolint:ignore determinism admission races only select which request is shed with zero state change, never tick output
	select {
	case sh.jobs <- job:
	case <-sh.quit:
		sh.pending.add(-1)
		return tempo.ScenarioIteration{}, ErrClosed
	case <-actx.Done():
		sh.pending.add(-1)
		sh.shed.add(1)
		sh.svc.shedRequests.add(1)
		return tempo.ScenarioIteration{}, fmt.Errorf("%w: shard %d queue full past the admission deadline (%v)", ErrOverloaded, sh.idx, actx.Err())
	}
	// Once admitted the job WILL run — abandoning it on a deadline would
	// mean an error response for a tick that still commits, breaking the
	// "error means no state change" retry contract. Only service shutdown
	// cuts the wait, and that cut is ErrInterrupted, not ErrClosed: the
	// job may have executed (or still commit durably) after the wait is
	// severed, so the outcome is unknown and clients must not auto-retry.
	//tempolint:ignore determinism reply-vs-shutdown race only selects ErrInterrupted, never alters tick output
	select {
	case res := <-job.reply:
		return res.it, res.err
	case <-sh.quit:
		return tempo.ScenarioIteration{}, fmt.Errorf("%w: shard %d stopped while the job was queued or running", ErrInterrupted, sh.idx)
	}
}

// retryAfterSeconds estimates when a shed caller should come back: the
// time for the current queue to drain at the shard's p99 tick latency
// across its workers, rounded up to whole seconds and clamped to
// [1, 30] — an honest hint, not a promise.
func (sh *shard) retryAfterSeconds() int {
	_, p99, ok := sh.lat.quantiles()
	if !ok {
		return 1
	}
	est := time.Duration(len(sh.jobs)+1) * p99 / time.Duration(sh.svc.cfg.WorkersPerShard)
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

func (sh *shard) worker() {
	defer sh.wg.Done()
	for {
		//tempolint:ignore determinism job-vs-quit race only decides when the worker stops; ticks are serialized per cluster
		select {
		case <-sh.quit:
			return
		case job := <-sh.jobs:
			if job.remove {
				job.reply <- tickResult{err: sh.svc.execDelete(job.cluster)}
				sh.pending.add(-1)
				continue
			}
			//tempolint:ignore determinism wall-clock feeds the latency ring metric only, never report bytes
			start := time.Now()
			it, err := sh.svc.execTick(job.cluster)
			if err == nil {
				sh.ticks.add(1)
				sh.lat.record(time.Since(start))
			}
			job.reply <- tickResult{it: it, err: err}
			sh.pending.add(-1)
		}
	}
}

// latencyWindow is how many recent latencies a latencyRing retains for
// the p50/p99 metrics.
const latencyWindow = 1024

// latencyRing retains the most recent tick latencies for quantile
// estimation. Fixed capacity: a long-running daemon's metrics must not
// grow with tick count, and recent samples are the ones operators care
// about.
type latencyRing struct {
	mu      sync.Mutex
	samples [latencyWindow]time.Duration
	next    int
	full    bool
}

func (r *latencyRing) record(d time.Duration) {
	r.mu.Lock()
	r.samples[r.next] = d
	r.next++
	if r.next == len(r.samples) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// quantiles returns the p50 and p99 of the retained window (nearest-rank
// on the sorted copy), or zeros with ok=false when no tick has completed.
func (r *latencyRing) quantiles() (p50, p99 time.Duration, ok bool) {
	r.mu.Lock()
	n := r.next
	if r.full {
		n = len(r.samples)
	}
	buf := append([]time.Duration(nil), r.samples[:n]...)
	r.mu.Unlock()
	if len(buf) == 0 {
		return 0, 0, false
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	rank := func(q float64) time.Duration {
		i := int(q * float64(len(buf)-1))
		return buf[i]
	}
	return rank(0.50), rank(0.99), true
}
