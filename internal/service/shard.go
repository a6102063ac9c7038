// The tick execution path below is part of the deterministic surface:
// a cluster's report bytes must not depend on which goroutine or shard
// ran its ticks. Wall-clock reads and channel races here are confined to
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

// shard owns a slice of the cluster population and bounds its tick
// concurrency: a tick or teardown runs on the goroutine that asked for it
// while holding one of the shard's WorkersPerShard slots.
type shard struct {
	idx int
	svc *Service
	// slots is a semaphore: a send takes a slot, a receive returns it.
	// Blocked senders are served in arrival order, so waiters go FIFO.
	slots chan struct{}

	ticks       counter
	whatifEvals counter
	// scored aggregates the controller's per-tick search stats
	// (tempo.SearchStats) over every resident cluster: candidates fully
	// scored through the what-if simulator rather than warm-started from
	// the cross-tick cache.
	scored counter
	// waiting gauges the requests blocked on a slot right now.
	waiting counter
	// shed counts admissions refused because every slot stayed taken past
	// the deadline — requests turned away with zero state change.
	shed counter
	lat  latencyRing
	// decLat retains recent controller decision latencies (propose →
	// apply, reported by the session per tick) — the search-phase slice of
	// the tick latency lat measures.
	decLat latencyRing
}

// tick runs one tick for the cluster inside one of the shard's slots.
func (sh *shard) tick(ctx context.Context, c *Cluster) (tempo.ScenarioIteration, error) {
	if err := sh.enter(ctx); err != nil {
		return tempo.ScenarioIteration{}, err
	}
	defer sh.leave()
	//tempolint:ignore determinism wall-clock feeds the latency ring metric only, never report bytes
	start := time.Now()
	it, err := sh.svc.execTick(c)
	if err == nil {
		sh.ticks.add(1)
		sh.lat.record(time.Since(start))
	}
	return it, err
}

// remove runs the cluster's teardown under the same admission as ticks.
func (sh *shard) remove(ctx context.Context, c *Cluster) error {
	if err := sh.enter(ctx); err != nil {
		return err
	}
	defer sh.leave()
	return sh.svc.execDelete(c)
}

// enter admits one tick or teardown: it joins the service's drain group
// and takes a slot, a free one without building a timer. With every slot
// taken the wait is bounded by the caller's context and AdmissionTimeout
// (ErrOverloaded) and cut short by Close (ErrClosed). An error means the
// request never ran, so the 503 it becomes is always safe to retry; after
// a nil return the caller owes one leave.
func (sh *shard) enter(ctx context.Context) error {
	s := sh.svc
	// Close latches closed under the write lock before it waits for the
	// group, so an Add under the read lock cannot race that Wait.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	s.drain.Add(1)
	s.mu.RUnlock()
	select {
	case sh.slots <- struct{}{}:
		return nil
	default:
	}
	sh.waiting.add(1)
	defer sh.waiting.add(-1)
	actx, cancel := context.WithTimeout(ctx, s.cfg.AdmissionTimeout)
	defer cancel()
	//tempolint:ignore determinism admission races only select which request is shed with zero state change, never tick output
	select {
	case sh.slots <- struct{}{}:
		return nil
	case <-s.quit:
		s.drain.Done()
		return ErrClosed
	case <-actx.Done():
		s.drain.Done()
		sh.shed.add(1)
		s.shedRequests.add(1)
		return fmt.Errorf("%w: shard %d busy past the admission deadline (%v)", ErrOverloaded, sh.idx, actx.Err())
	}
}

// leave, deferred, ends what enter admitted. A panic in between goes to
// Service.crash with the slot still held: the session may have stopped
// part-way through Apply, and nothing may tick it again.
func (sh *shard) leave() {
	v := recover()
	if v != nil {
		sh.svc.crash(v) // returns only under a test's substitute
	}
	<-sh.slots
	sh.svc.drain.Done()
	if v != nil {
		panic(v)
	}
}

// retryAfterSeconds estimates when a shed caller should come back: the
// time for the requests waiting now to get through the shard's slots at
// its p99 tick latency, rounded up to whole seconds and clamped to
// [1, 30] — an honest hint, not a promise.
func (sh *shard) retryAfterSeconds() int {
	_, p99, ok := sh.lat.quantiles()
	if !ok {
		return 1
	}
	est := time.Duration(sh.waiting.get()+1) * p99 / time.Duration(sh.svc.cfg.WorkersPerShard)
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
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
