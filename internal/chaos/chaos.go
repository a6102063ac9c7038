// Package chaos is tempod's deterministic fault-schedule subsystem: a
// seeded injector that decides, reproducibly, which ticks run slow,
// which WAL appends tear mid-write, which API requests are shed at the
// door, and which fsyncs stall — the fault classes a production control
// plane must shrug off (overload, dying disks, flaky peers).
//
// Determinism is the whole point. Every decision is a pure function of
// (seed, fault class, subject, per-subject sequence number): the k-th
// tick executed on cluster "c7" faults — or doesn't — identically on
// every run with the same seed, regardless of shard interleaving,
// worker count, or wall-clock. Per-cluster decisions ride on per-cluster
// sequence counters, which are themselves deterministic because the
// service serializes each cluster's ticks; global decisions (request
// shedding) ride on a global counter and are reproducible in aggregate
// rate, not per-request identity. Chaos sweeps lean on this: a failure
// found at seed S replays at seed S.
//
// The injector is wired in three places: service.Config.Chaos (tick
// latency, WAL faults, request shedding), store.Options.Stall (fsync
// stalls), and the tempod -chaos-seed / -chaos-spec flags.
//
//tempolint:deterministic
package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Spec is the fault schedule's shape: per-class probabilities (all in
// [0, 1]) and magnitudes. The zero Spec injects nothing.
type Spec struct {
	// TickLatency is the probability a tick execution sleeps
	// TickLatencyMs before running — injected slowness that fills shard
	// queues and forces the admission path to shed.
	TickLatency   float64 `json:"tick_latency,omitempty"`
	TickLatencyMs int     `json:"tick_latency_ms,omitempty"`
	// WALFault is the probability a tick's WAL append is torn mid-write
	// (store.FaultPoint): the tick fails durably and the cluster enters
	// degraded mode until the recovery probe re-arms it.
	WALFault float64 `json:"wal_fault,omitempty"`
	// HandlerError is the probability an API request is shed at the door
	// with a 503 {error, code} envelope before any handler runs —
	// injected front-end overload, exercising client retry paths.
	HandlerError float64 `json:"handler_error,omitempty"`
	// FsyncStall is the probability a WAL fsync sleeps FsyncStallMs
	// first — the intermittently glacial disk.
	FsyncStall   float64 `json:"fsync_stall,omitempty"`
	FsyncStallMs int     `json:"fsync_stall_ms,omitempty"`
}

// Default returns a mild all-classes schedule: enough fault pressure to
// exercise every recovery path without drowning the workload.
func Default() Spec {
	return Spec{
		TickLatency: 0.05, TickLatencyMs: 20,
		WALFault:     0.02,
		HandlerError: 0.05,
		FsyncStall:   0.02, FsyncStallMs: 10,
	}
}

// Validate rejects out-of-range probabilities and negative magnitudes.
func (s Spec) Validate() error {
	probs := map[string]float64{
		"tick_latency":  s.TickLatency,
		"wal_fault":     s.WALFault,
		"handler_error": s.HandlerError,
		"fsync_stall":   s.FsyncStall,
	}
	for _, name := range []string{"tick_latency", "wal_fault", "handler_error", "fsync_stall"} {
		if p := probs[name]; p < 0 || p > 1 {
			return fmt.Errorf("chaos: %s probability %g outside [0, 1]", name, p)
		}
	}
	if s.TickLatencyMs < 0 {
		return fmt.Errorf("chaos: tick_latency_ms %d is negative", s.TickLatencyMs)
	}
	if s.FsyncStallMs < 0 {
		return fmt.Errorf("chaos: fsync_stall_ms %d is negative", s.FsyncStallMs)
	}
	return nil
}

// withDefaults fills magnitude defaults for enabled classes.
func (s Spec) withDefaults() Spec {
	if s.TickLatency > 0 && s.TickLatencyMs == 0 {
		s.TickLatencyMs = 20
	}
	if s.FsyncStall > 0 && s.FsyncStallMs == 0 {
		s.FsyncStallMs = 10
	}
	return s
}

// ParseSpec decodes a fault schedule from JSON, rejecting unknown fields
// so a typoed class name fails loudly instead of silently injecting
// nothing.
func ParseSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("chaos: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s.withDefaults(), nil
}

// LoadSpecFile reads a fault schedule from a JSON file.
func LoadSpecFile(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	return ParseSpec(f)
}

// Counts totals the faults actually injected, per class.
type Counts struct {
	TickDelays   int64 `json:"tick_delays"`
	WALFaults    int64 `json:"wal_faults"`
	HandlerSheds int64 `json:"handler_sheds"`
	FsyncStalls  int64 `json:"fsync_stalls"`
}

// Decision streams: each fault class draws from its own keyed stream so
// enabling one class never perturbs another's schedule.
const (
	streamTickLatency uint64 = 1 + iota
	streamWALFault
	streamWALOffset
	streamHandler
	streamFsync
)

// Injector makes the fault decisions for one seeded run. Safe for
// concurrent use; the zero-probability classes cost one atomic-free
// check each.
type Injector struct {
	seed uint64
	spec Spec

	mu sync.Mutex
	// per-cluster decision sequence numbers: one consumed per tick
	// execution (latency + WAL fault share the sequence, drawing from
	// separate streams). Deterministic because the service serializes
	// each cluster's ticks.
	clusterSeq map[string]uint64
	// global sequences for per-request and per-fsync decisions.
	handlerSeq uint64
	fsyncSeq   uint64
	counts     Counts
}

// New builds an injector for the validated spec. Seed 0 is as good as
// any other — determinism, not entropy, is the contract.
func New(seed int64, spec Spec) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		seed:       uint64(seed),
		spec:       spec.withDefaults(),
		clusterSeq: map[string]uint64{},
	}, nil
}

// Seed returns the seed the injector was built with (for logging a
// failing schedule so it can be replayed).
func (in *Injector) Seed() int64 { return int64(in.seed) }

// Counts snapshots how many faults each class has injected so far.
//
//tempolint:ignore testonly service's TestChaosDeterministicOutcome, TestShutdownInterruptsAdmittedTick and TestCloseRefusesWaiters read it
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// mix is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixer, the standard trick for turning structured keys into uniform
// decision bits.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll returns a uniform float64 in [0, 1) keyed by (seed, stream,
// subject, seq) — the pure function every decision reduces to.
func (in *Injector) roll(stream uint64, subject string, seq uint64) float64 {
	h := mix(in.seed ^ stream)
	for i := 0; i < len(subject); i++ {
		h = mix(h ^ uint64(subject[i]))
	}
	h = mix(h ^ seq)
	return float64(h>>11) / float64(1<<53)
}

// TickFaults decides the faults for one tick execution on the cluster:
// an injected pre-tick delay (0 = none) and whether the tick's WAL
// append is torn (tearAt = bytes of the record that land before the
// tear). One call consumes one per-cluster sequence number, so a tick
// re-executed after degraded-mode recovery draws a fresh decision and
// the cluster can always make progress.
func (in *Injector) TickFaults(cluster string) (delay time.Duration, tearWAL bool, tearAt int64) {
	if in == nil || (in.spec.TickLatency <= 0 && in.spec.WALFault <= 0) {
		return 0, false, 0
	}
	in.mu.Lock()
	seq := in.clusterSeq[cluster]
	in.clusterSeq[cluster] = seq + 1
	if in.spec.TickLatency > 0 && in.roll(streamTickLatency, cluster, seq) < in.spec.TickLatency {
		in.counts.TickDelays++
		delay = time.Duration(in.spec.TickLatencyMs) * time.Millisecond
	}
	if in.spec.WALFault > 0 && in.roll(streamWALFault, cluster, seq) < in.spec.WALFault {
		in.counts.WALFaults++
		tearWAL = true
		// Tear within the first bytes of the record so the fault lands in
		// the frame header or early payload — the torn shapes WAL recovery
		// must truncate away.
		tearAt = int64(in.roll(streamWALOffset, cluster, seq) * 12)
	}
	in.mu.Unlock()
	return delay, tearWAL, tearAt
}

// ShedRequest decides whether to refuse the next API request at the
// door. Global sequence: reproducible in aggregate rate.
func (in *Injector) ShedRequest() bool {
	if in == nil || in.spec.HandlerError <= 0 {
		return false
	}
	in.mu.Lock()
	seq := in.handlerSeq
	in.handlerSeq++
	hit := in.roll(streamHandler, "", seq) < in.spec.HandlerError
	if hit {
		in.counts.HandlerSheds++
	}
	in.mu.Unlock()
	return hit
}

// FsyncStall returns how long the next WAL fsync should stall (0 =
// none). Wire it as store.Options.Stall.
func (in *Injector) FsyncStall() time.Duration {
	if in == nil || in.spec.FsyncStall <= 0 {
		return 0
	}
	in.mu.Lock()
	seq := in.fsyncSeq
	in.fsyncSeq++
	hit := in.roll(streamFsync, "", seq) < in.spec.FsyncStall
	if hit {
		in.counts.FsyncStalls++
	}
	in.mu.Unlock()
	if !hit {
		return 0
	}
	return time.Duration(in.spec.FsyncStallMs) * time.Millisecond
}
