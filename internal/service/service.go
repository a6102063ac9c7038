// Package service is tempod's sharded multi-cluster control plane: a
// long-running daemon core that hosts many independent tenant clusters
// (tempo.Session instances — each with its own workload, controller and
// What-if Model) concurrently.
//
// Clusters are pinned to shards by an FNV hash of their id. Each shard
// has a fixed number of tick slots: a tick runs on the goroutine of the
// request that asked for it while holding a slot of the owning shard, so
// the tick concurrency of the whole process is bounded by shards × slots
// no matter how many clusters are resident or how many requests are in
// flight, and an idle in-memory service runs no goroutine at all. Ticks
// on one cluster serialize (the cluster mutex enforces it), while ticks
// on different clusters proceed in parallel across slots and shards.
//
// The HTTP/JSON API (see Handler) exposes cluster creation from a
// declarative scenario spec, ticks, windowed QS queries (a fully covered
// interval reuses the QS vector its tick recorded), what-if candidate
// scoring, canonical reports, and liveness/metrics endpoints.
// Determinism survives the sharding: a cluster driven through the service
// produces a report byte-identical to the same spec run sequentially by
// scenario.Run — `tempoctl load` asserts exactly that under concurrent
// traffic.
//
// Serving is allocation-lean: the control-loop work a tick drives
// (schedule prediction, emulation, QS evaluation) runs on pooled
// simulators (cluster.Sim via whatif's per-worker Scratch and
// cluster.Run's shared pool), whose run buffers are kept across the ticks
// of all resident clusters instead of churning the heap — at 1000
// clusters the process would otherwise be GC-bound. The pools are
// process-wide sync.Pools: a tick on any shard reuses whatever Sim the
// last one parked, and memory pressure shrinks them automatically.
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tempo"
	"tempo/internal/chaos"
	"tempo/internal/store"
)

// Config sizes the control plane.
type Config struct {
	// Shards is the number of cluster shards; 0 means 4.
	Shards int
	// WorkersPerShard is how many ticks one shard runs at once; 0 means 2.
	WorkersPerShard int
	// Parallelism caps every hosted cluster's what-if worker pool; 0 means
	// 1. The default is deliberate: the service's parallelism comes from
	// driving many clusters at once, and per-cluster fan-out on top of
	// the shards' tick slots would oversubscribe the host. Results are
	// bit-identical for every setting.
	Parallelism int
	// Store enables durability. When non-nil, New recovers every cluster
	// with on-disk state (snapshot restore + WAL re-drive, byte-identical
	// trajectories), every committed tick appends its observed schedule to
	// the cluster's WAL before the tick is acked, snapshots are written
	// every SnapshotEvery ticks, Delete removes the on-disk state, and
	// Close flushes and closes the store — the service owns it from here.
	Store *store.Store
	// SnapshotEvery is how many committed ticks between control-loop
	// snapshots; 0 means 8. A snapshot bounds recovery's re-drive cost to
	// at most SnapshotEvery ticks. Ignored without Store.
	SnapshotEvery int
	// DrainTimeout bounds how long Close lets requests keep waiting for a
	// tick slot before failing them with ErrClosed; 0 means 5s.
	DrainTimeout time.Duration
	// MaxStreams caps concurrent standing query subscriptions (SSE)
	// across all clusters; 0 means 64. Requests past the cap get 429 with
	// code "subscription_limit" — a stream holds a goroutine and a
	// per-subscription query runner for its whole life, so the cap is the
	// service's live-query memory bound.
	MaxStreams int
	// StreamHeartbeat is the idle keep-alive interval of query streams
	// (an SSE comment, so proxies don't reap quiet connections); 0 means
	// 15s.
	StreamHeartbeat time.Duration
	// AdmissionTimeout bounds how long a tick or delete may wait for one
	// of its shard's slots before being shed with ErrOverloaded (503
	// "overloaded" over HTTP, with a Retry-After hint derived from the
	// shard's p99 tick latency); 0 means 1s. A caller context with an
	// earlier deadline shortens the wait further. Shed requests touch no
	// state, so retrying them is always safe.
	AdmissionTimeout time.Duration
	// RecoveryProbeInterval is how often the background probe tries to
	// re-arm degraded clusters (reopen the broken WAL, resume the
	// session from the committed prefix); 0 means 2s. Ignored without
	// Store.
	RecoveryProbeInterval time.Duration
	// Chaos, when non-nil, injects the deterministic fault schedule
	// (internal/chaos): pre-tick latency, torn WAL appends, and API
	// requests shed at the door. Wired by tempod's -chaos-seed /
	// -chaos-spec flags and the chaos test harness.
	Chaos *chaos.Injector
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = 2
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 8
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 64
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	if c.AdmissionTimeout <= 0 {
		c.AdmissionTimeout = time.Second
	}
	if c.RecoveryProbeInterval <= 0 {
		c.RecoveryProbeInterval = 2 * time.Second
	}
	return c
}

// ErrClosed is returned for operations refused because the service is
// closed — refusals that happen before any state could change, so a
// client may safely retry against a restarted server.
var ErrClosed = errors.New("service: closed")

// ErrNotFound is returned for operations naming an unknown cluster id.
var ErrNotFound = errors.New("service: unknown cluster")

// ErrExists is returned when creating a cluster under a taken id.
var ErrExists = errors.New("service: cluster id already exists")

// ErrOverloaded is returned when a shard's slots all stay taken past the
// admission deadline: the request was shed before touching any state,
// so retrying after backoff is always safe.
var ErrOverloaded = errors.New("service: overloaded")

// ErrDegraded is returned for writes to a cluster whose durable store
// is failing. The cluster keeps serving reads from its last committed
// state; the recovery probe re-arms it once the store heals. A degraded
// write never mutates state, so retrying after backoff is safe.
var ErrDegraded = errors.New("service: cluster degraded")

// Service hosts many tenant clusters across a fixed set of shards.
type Service struct {
	cfg    Config
	start  time.Time
	shards []*shard
	quit   chan struct{}

	mu       sync.RWMutex
	clusters map[string]*Cluster
	closed   bool

	// draining latches at the top of Close, before the drain wait: the
	// readiness signal flips false while in-flight work is still
	// finishing, so load balancers stop routing here first.
	draining atomic.Bool
	// probeWG tracks the degraded-cluster recovery probe goroutine.
	probeWG sync.WaitGroup
	// drain counts the ticks and teardowns between shard.enter and
	// shard.leave, waiting for a slot or holding one.
	drain sync.WaitGroup
	// crash is crashProcess; a field so a test can watch the hand-over.
	crash func(v any)

	qsQueries    counter
	whatifEvals  counter
	queryOneShot counter
	// streams is the live subscription gauge; handleQueryStream increments
	// it under the MaxStreams cap and decrements on disconnect.
	streams counter
	// shedRequests totals requests refused without execution: admission
	// deadline sheds plus chaos-injected handler errors.
	shedRequests counter
	// degradedGauge counts clusters currently in degraded mode.
	degradedGauge counter
}

// Cluster is one hosted tenant cluster: a Session pinned to a shard.
type Cluster struct {
	ID      string
	Shard   int
	Created time.Time

	// session is the cluster's live control loop. Ticks advance it in place
	// (observe → log → apply: it never holds a tick the WAL does not); only
	// rearm swaps the pointer, when it resumes from disk. Reads go through
	// the atomic pointer and never queue behind an executing tick.
	session atomic.Pointer[tempo.Session]

	// mu serializes the tick (observe+append+apply), re-arm and deletion:
	// a tick holds it for the whole commit, so Delete can never tear down
	// the on-disk state (or drop the session) under a tick's feet.
	mu sync.Mutex
	// store is the cluster's durable state; nil when durability is off.
	store *store.ClusterStore
	// life is the cluster's one lifecycle state. Only Service.transition
	// writes it, under mu; reads are lock-free — a tick holds mu for its
	// whole commit, and admission must never wait behind execution.
	life atomic.Pointer[lifecycle]
	// tickc is the change-notification channel standing query streams
	// wait on: closed and replaced under mu whenever a tick commits or
	// the lifecycle state changes, so every waiter wakes exactly once per
	// change and re-reads the cluster.
	tickc chan struct{}
}

// phase is where a cluster is in its life.
type phase uint8

const (
	phaseActive phase = iota // serving reads and writes
	// phaseDegraded: the durable store failed under a write. Reads keep
	// serving the committed state, writes fail with ErrDegraded, and the
	// recovery probe re-arms the cluster once the store heals.
	phaseDegraded
	phaseGone // torn down, terminal: holders of the cluster get ErrNotFound
)

// lifecycle is one published lifecycle state, immutable once stored.
type lifecycle struct {
	phase phase
	cause error // why the cluster degraded; nil in the other phases
}

func newCluster(id string, shard int, sess *tempo.Session, cs *store.ClusterStore) *Cluster {
	c := &Cluster{ID: id, Shard: shard, Created: time.Now(), store: cs, tickc: make(chan struct{})}
	c.session.Store(sess)
	c.life.Store(&lifecycle{})
	return c
}

// transition moves the cluster to phase to and reports whether it moved.
// It is the only writer of the lifecycle state and owns everything that
// hangs off it — the degraded cause, the degraded_clusters gauge and the
// stream wake-up — so none of them can drift from the state. The table:
//
//	from \ to   active    degraded   gone
//	active      -         fault      delete
//	degraded    re-arm    -          delete
//	gone        -         -          -
//
// Every "-" is a refused no-op: gone is terminal, and a repeated event
// (a second fault, a second probe) changes nothing and keeps the first
// cause. Callers hold c.mu.
func (s *Service) transition(c *Cluster, to phase, cause error) bool {
	from := c.life.Load().phase
	if from == to || from == phaseGone {
		return false
	}
	c.life.Store(&lifecycle{phase: to, cause: cause})
	if to == phaseDegraded {
		s.degradedGauge.add(1)
	}
	if from == phaseDegraded {
		s.degradedGauge.add(-1)
	}
	c.notifyLocked()
	return true
}

// Session returns the cluster's live session. Across a re-arm readers see
// either the pre-swap or post-swap session, both internally consistent
// and both on the one committed trajectory.
func (c *Cluster) Session() *tempo.Session { return c.session.Load() }

// changed returns a channel that closes on the cluster's next committed
// tick or lifecycle change. Call it before reading Session.Ticks so a
// commit between the read and the wait cannot be missed.
func (c *Cluster) changed() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tickc
}

// isDeleted reports whether the cluster has been torn down.
func (c *Cluster) isDeleted() bool { return c.life.Load().phase == phaseGone }

// Degraded reports whether the cluster is in degraded mode (reads only,
// durable store failing).
func (c *Cluster) Degraded() bool { return c.life.Load().phase == phaseDegraded }

// writeError is the lifecycle gate every write passes: nil while the
// cluster is active, ErrNotFound once it is gone, the ErrDegraded-wrapped
// cause while it is degraded.
func (c *Cluster) writeError() error {
	switch l := c.life.Load(); l.phase {
	case phaseGone:
		return fmt.Errorf("%w: %s", ErrNotFound, c.ID)
	case phaseDegraded:
		return fmt.Errorf("%w: %s: %v", ErrDegraded, c.ID, l.cause)
	}
	return nil
}

// notifyLocked wakes every changed() waiter. Callers hold c.mu.
func (c *Cluster) notifyLocked() {
	close(c.tickc)
	c.tickc = make(chan struct{})
}

// New starts a control plane with the given sizing (zero fields take
// defaults). With cfg.Store set, every cluster with on-disk state is
// recovered before New returns: snapshot restored, WAL re-driven, and the
// session resumes mid-scenario on a trajectory byte-identical to the
// uninterrupted run. Close it to drain running ticks and close the store.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		start:    time.Now(),
		quit:     make(chan struct{}),
		clusters: map[string]*Cluster{},
		crash:    crashProcess,
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &shard{idx: i, svc: s, slots: make(chan struct{}, cfg.WorkersPerShard)})
	}
	if cfg.Store != nil {
		for _, id := range cfg.Store.IDs() {
			cs, err := cfg.Store.Get(id)
			var sess *tempo.Session
			if err == nil {
				sess, err = s.resumeFromStore(cs)
			}
			if err != nil {
				return nil, fmt.Errorf("service: recovering cluster %s: %w", id, err)
			}
			s.clusters[id] = newCluster(id, s.shardFor(id), sess, cs)
		}
		s.probeWG.Add(1)
		go s.recoveryProbeLoop()
	}
	return s, nil
}

// resumeFromStore is the one recovery function: it rebuilds a session
// from a cluster's durable state, for startup recovery and for re-arm. A
// snapshot that cannot be applied (stale, reaching past the surviving
// WAL) falls back to a full WAL re-drive; the WAL itself is
// authoritative.
func (s *Service) resumeFromStore(cs *store.ClusterStore) (*tempo.Session, error) {
	schedules, err := cs.Schedules()
	if err != nil {
		return nil, err
	}
	snap, err := cs.LoadSnapshot()
	if err != nil {
		return nil, err
	}
	opts := tempo.ScenarioOptions{Parallelism: s.cfg.Parallelism, Clock: time.Now}
	sess, err := tempo.ResumeSession(cs.Spec(), opts, snap, schedules)
	if err != nil && snap != nil {
		sess, err = tempo.ResumeSession(cs.Spec(), opts, nil, schedules)
	}
	return sess, err
}

// crashProcess keeps a panic inside a tick process-fatal. net/http would
// recover it on the request's goroutine and keep serving a session that
// stopped part-way through Apply; re-raised on a goroutine nothing
// recovers, it ends the process and the restart rebuilds from the WAL.
func crashProcess(v any) {
	go panic(fmt.Sprintf("service: panic inside a tick: %v\n\n%s", v, debug.Stack()))
	select {}
}

// Close stops accepting work and drains. Ticks and teardowns already
// running finish and return their real result (durable, with a store), so
// shutdown leaves no write with an unknown outcome. Requests still
// waiting for a slot after DrainTimeout fail with ErrClosed, having never
// run. Close then stops the recovery probe and closes the store.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	// Flip readiness before the drain: /v1/readyz answers false for the
	// whole drain window, so routing peels away while in-flight ticks
	// still finish cleanly.
	s.draining.Store(true)
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() { s.drain.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(s.cfg.DrainTimeout):
	}
	close(s.quit) // waiters give up; whoever holds a slot runs to the end
	<-drained
	s.probeWG.Wait()
	if s.cfg.Store != nil {
		s.cfg.Store.Close()
	}
}

// Ready reports whether the service should receive traffic: true from
// the moment New returns (recovery complete) until Close begins
// draining. Liveness (healthz) stays true throughout — a draining
// process is alive, just not admitting.
func (s *Service) Ready() bool { return !s.draining.Load() }

// shardFor pins a cluster id to a shard: FNV-1a over the id, mod shards.
// The pin is a pure function of the id, so a cluster keeps its shard (and
// its metrics attribution) for its whole life.
func (s *Service) shardFor(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// Create builds a cluster from the scenario spec and registers it under
// id (empty id defaults to the spec name).
func (s *Service) Create(id string, spec *tempo.Scenario) (*Cluster, error) {
	if id == "" {
		id = spec.Name
	}
	// Cheap pre-checks before paying for the session build (workload
	// synthesis, controller wiring): a retrying client hitting ErrExists
	// must not cost a full scenario Build per attempt. The authoritative
	// check is repeated under the write lock below.
	s.mu.RLock()
	_, taken := s.clusters[id]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if taken {
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	sess, err := tempo.NewSession(spec, tempo.ScenarioOptions{Parallelism: s.cfg.Parallelism, Clock: time.Now})
	if err != nil {
		return nil, err
	}
	c := newCluster(id, s.shardFor(id), sess, nil)
	if s.cfg.Store != nil {
		// The store is the arbiter between racing Creates on one id: the
		// loser sees store.ErrExists before touching the registry.
		cs, err := s.cfg.Store.Create(id, spec)
		if errors.Is(err, store.ErrExists) {
			return nil, fmt.Errorf("%w: %s", ErrExists, id)
		}
		if err != nil {
			return nil, err
		}
		c.store = cs
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, ok := s.clusters[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	s.clusters[id] = c
	return c, nil
}

// Get returns the cluster registered under id.
func (s *Service) Get(id string) (*Cluster, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	c, ok := s.clusters[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return c, nil
}

// Delete tears the cluster down and, with durability on, removes its
// on-disk state. The teardown takes a slot of the cluster's shard like a
// tick and is serialized against ticks by the cluster mutex, so an
// in-flight tick either commits fully before the teardown or observes the
// deletion and fails with ErrNotFound — it can never append to removed
// state. Delete works on degraded clusters (teardown is how a hopelessly
// broken store is cleared). The context bounds admission only; an
// admitted teardown always completes.
//
// The cluster stays registered until its teardown actually runs: during
// the admission wait reads keep serving, a racing Create(id) sees
// ErrExists instead of silently taking over a still-live id, and a
// teardown shed with ErrOverloaded leaves the cluster exactly as it was.
// Unregistration happens only after execDelete has moved the cluster to
// gone, so a request that resolves the id in that last window is fenced
// by the lifecycle state and fails with ErrNotFound.
func (s *Service) Delete(ctx context.Context, id string) error {
	c, err := s.Get(id)
	if err != nil {
		return err
	}
	err = s.shards[c.Shard].remove(ctx, c)
	if err == nil || c.isDeleted() {
		// Torn down (by this call or a racing one that won execDelete):
		// drop the registry entry so the id becomes available again.
		s.mu.Lock()
		if cur, taken := s.clusters[id]; taken && cur == c {
			delete(s.clusters, id)
		}
		s.mu.Unlock()
	}
	return err
}

// execTick runs one tick inside a shard slot, in log-then-apply order:
// observe the next interval (the session does not change), append the
// schedule to the WAL, and only then apply it to the session. The
// session therefore never holds a tick the log does not, and no failure
// needs a rollback: a failed append discards the observation, degrades
// the cluster and reports ErrDegraded — an honest "nothing happened",
// safe to retry after recovery. The cluster mutex makes the whole commit
// atomic with respect to Delete and re-arm.
func (s *Service) execTick(c *Cluster) (tempo.ScenarioIteration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.writeError(); err != nil {
		return tempo.ScenarioIteration{}, err
	}
	if delay, tearWAL, tearAt := s.cfg.Chaos.TickFaults(c.ID); delay > 0 || tearWAL {
		if delay > 0 {
			// Injected chaos latency stalls this slot only; tick output is
			// untouched.
			time.Sleep(delay)
		}
		if tearWAL && c.store != nil {
			c.store.InjectFault(c.store.WALSize() + tearAt)
		}
	}
	sess := c.Session()
	tick, sched, err := sess.Observe()
	if err != nil {
		return tempo.ScenarioIteration{}, err
	}
	if c.store != nil {
		if err := c.store.AppendTick(tick, sched); err != nil {
			s.transition(c, phaseDegraded, fmt.Errorf("logging tick %d: %w", tick, err))
			return tempo.ScenarioIteration{}, fmt.Errorf("%w: %s: tick %d not committed: %v", ErrDegraded, c.ID, tick, err)
		}
	}
	it, err := sess.Apply(tick, sched)
	if err != nil {
		if c.store != nil {
			// The WAL is one tick ahead of a session whose control step
			// stopped part-way. Fail-stop: re-arm rebuilds the session from the
			// store, logged tick included. Not ErrDegraded — the tick is
			// durable, so a retry would double-apply it.
			err = fmt.Errorf("tick %d logged but not applied: %w", tick, err)
			s.transition(c, phaseDegraded, err)
		}
		return tempo.ScenarioIteration{}, err
	}
	c.notifyLocked() // wake query streams: the commit is durable and visible
	if st := sess.Search(tick); st != nil {
		sh := s.shards[c.Shard]
		sh.scored.add(int64(st.FullyScored))
		if st.DecisionNanos > 0 {
			sh.decLat.record(time.Duration(st.DecisionNanos))
		}
	}
	if c.store != nil && (tick+1)%s.cfg.SnapshotEvery == 0 {
		snap, err := sess.Snapshot()
		if err == nil {
			err = c.store.WriteSnapshot(snap)
		}
		if err != nil {
			// The tick IS committed — only the periodic snapshot (a
			// recovery-cost optimization) failed. Ack the tick; failing it
			// would break the "error means no state change" retry contract
			// and let a retry double-tick. Degrade so further writes pause
			// until the store heals.
			s.transition(c, phaseDegraded, fmt.Errorf("snapshotting after tick %d: %w", tick, err))
		}
	}
	return it, nil
}

// recoveryProbeLoop periodically retries degraded clusters' stores
// until Close. The cadence is RecoveryProbeInterval; each pass is cheap
// when nothing is degraded.
func (s *Service) recoveryProbeLoop() {
	defer s.probeWG.Done()
	t := time.NewTicker(s.cfg.RecoveryProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.ProbeRecovery()
		}
	}
}

// ProbeRecovery attempts to re-arm every degraded cluster right now:
// reopen its WAL from the durable prefix and resume the session from it.
// It returns how many clusters this call moved from degraded to active.
// The background probe calls this on its interval; tests and operators
// can call it directly.
func (s *Service) ProbeRecovery() int {
	s.mu.RLock()
	var degraded []*Cluster
	for _, c := range s.clusters {
		if c.Degraded() {
			degraded = append(degraded, c)
		}
	}
	s.mu.RUnlock()
	n := 0
	for _, c := range degraded {
		if s.rearm(c) {
			n++
		}
	}
	return n
}

// rearm tries to bring one degraded cluster back: reopen the WAL (fresh
// handle on the durable prefix, torn tail truncated, fault cleared) and
// resume a session from it. The WAL is authoritative — an append that
// failed after its complete frame reached disk comes back committed. It
// reports whether this call re-armed the cluster: a still-broken store
// leaves it degraded for the next probe, and a cluster a racing probe or
// delete got to first is left alone.
func (s *Service) rearm(c *Cluster) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.Degraded() {
		return false
	}
	if err := c.store.Reopen(); err != nil {
		return false
	}
	sess, err := s.resumeFromStore(c.store)
	if err != nil {
		return false
	}
	c.session.Store(sess)
	return s.transition(c, phaseActive, nil)
}

// execDelete tears one cluster down inside a shard slot.
func (s *Service) execDelete(c *Cluster) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !s.transition(c, phaseGone, nil) {
		return fmt.Errorf("%w: %s", ErrNotFound, c.ID)
	}
	if c.store != nil {
		return s.cfg.Store.DeleteCluster(c.store)
	}
	return nil
}

// List returns the resident cluster ids, sorted.
func (s *Service) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.clusters))
	for id := range s.clusters {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Tick runs one control-loop tick for the cluster on the caller's
// goroutine, inside one of its shard's slots. Concurrent Ticks on one
// cluster are serialized; Ticks on different clusters run in parallel up
// to shards × WorkersPerShard. The context bounds admission only (further
// capped by Config.AdmissionTimeout): a tick shed with ErrOverloaded or
// refused with ErrClosed never ran, and an admitted tick always runs to
// completion, Close included. done reports whether the cluster's
// iteration budget is now exhausted — read from the same session that
// ticked, so it cannot race with registry changes.
func (s *Service) Tick(ctx context.Context, c *Cluster) (it tempo.ScenarioIteration, done bool, err error) {
	// Refuse writes the lifecycle state rules out before admission: a
	// cluster waiting on store recovery must not occupy a shard slot.
	if err := c.writeError(); err != nil {
		return tempo.ScenarioIteration{}, false, err
	}
	it, err = s.shards[c.Shard].tick(ctx, c)
	if err != nil {
		return tempo.ScenarioIteration{}, false, err
	}
	return it, c.Session().Done(), nil
}

// QS answers a windowed QS query for the cluster (see tempo.Session.QS).
func (s *Service) QS(c *Cluster, from, to time.Duration) ([]tempo.WindowQS, error) {
	windows, err := c.Session().QS(from, to)
	if err != nil {
		return nil, err
	}
	s.qsQueries.add(1)
	return windows, nil
}

// Query runs a one-shot query plan over every interval the cluster has
// observed (see tempo.Session.Query).
func (s *Service) Query(c *Cluster, p *tempo.QueryPlan) (*tempo.QueryResult, error) {
	res, err := c.Session().Query(p)
	if err != nil {
		return nil, err
	}
	s.queryOneShot.add(1)
	return res, nil
}

// WhatIf scores candidate configurations in the cluster's What-if Model.
func (s *Service) WhatIf(c *Cluster, cfgs []tempo.ClusterConfig) ([][]float64, error) {
	rows, err := c.Session().WhatIf(cfgs)
	if err != nil {
		return nil, err
	}
	s.whatifEvals.add(int64(len(cfgs)))
	s.shards[c.Shard].whatifEvals.add(int64(len(cfgs)))
	return rows, nil
}
