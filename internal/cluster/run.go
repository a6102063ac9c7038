package cluster

import (
	"sync"

	"tempo/internal/workload"
)

// Sim is a reusable simulator for the cluster emulator / Schedule
// Predictor: one value owns a scheduler whose event queue, job, task,
// attempt and tenant slices, and Schedule record arrays are truncated,
// not freed, between runs. What-if candidate scoring runs thousands of
// simulations per control interval; keeping the buffers turns the per-run
// cost from tens of thousands of heap allocations into a constant handful
// (TestSimSteadyStateAllocs): the trace's validation map, the *Schedule,
// and nothing that grows with the trace.
//
// A Sim is not safe for concurrent use; give each worker its own (or Get
// one from the shared pool via Run). Results are bit-identical to a fresh
// simulator's — every piece of per-run state is reset by RunInto, and the
// scenario golden suite locks this.
type Sim struct {
	s scheduler
}

// NewSim returns a Sim with no buffers yet.
func NewSim() *Sim {
	return &Sim{}
}

// RunInto simulates the trace under the RM configuration, reusing the
// Sim's buffers, and returns the task schedule. The returned schedule
// BORROWS the Sim's record arrays: it is valid until the next RunInto on
// this Sim, which overwrites them. Callers that retain the schedule past
// that point must call Detach first, which gives it copies of its own.
// It is deterministic: the same inputs (including the noise model's seed)
// always produce the same schedule, whatever the Sim previously ran.
func (sm *Sim) RunInto(trace *workload.Trace, cfg Config, opts Options) (*Schedule, error) {
	// Forget the last schedule first: if validation fails, a Detach must
	// not rewrite a schedule the caller may already own.
	sm.s.schedule = nil
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := trace.Validate(); err != nil {
		return nil, err
	}
	s := &sm.s
	s.init(trace, cfg, opts)
	sched := s.run()
	// Keep the (possibly grown) record arrays for the next run.
	s.tasksBuf = sched.Tasks
	s.jobsBuf = sched.Jobs
	return sched, nil
}

// Detach releases the last returned schedule from the Sim by copying
// its records into arrays of exact size that the schedule owns, so it
// stays valid indefinitely; the Sim keeps its own arrays for the next
// run. It costs two allocations and never regrows anything. Detach must
// come before the schedule is shared, since it rewrites the schedule's
// Tasks and Jobs. It is a no-op when there is no schedule to release:
// after a failed RunInto, or a second Detach. Run is its one caller.
func (sm *Sim) Detach() {
	sched := sm.s.schedule
	if sched == nil {
		return
	}
	sched.Tasks = exactCopy(sched.Tasks)
	sched.Jobs = exactCopy(sched.Jobs)
	sm.s.schedule = nil
}

// exactCopy returns a copy of s with cap == len, nil for nil.
func exactCopy[T any](s []T) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// simPool recycles Sims across all callers of Run — under tempod every
// shard worker's control-loop ticks and what-if probes draw from it, so
// steady-state serving stops churning the heap. sync.Pool drops Sims
// under memory pressure, bounding retention.
var simPool = sync.Pool{New: func() any { return NewSim() }}

// Run simulates the trace under the RM configuration and returns the task
// schedule. It is deterministic: the same inputs (including the noise
// model's seed) always produce the same schedule.
//
// Run is a thin wrapper over a pooled Sim: the simulation's internal
// bookkeeping is recycled, while the returned schedule is detached (a
// copy owned by the caller, retainable forever; the pooled Sim keeps
// its buffers). Hot loops that score and discard many schedules should
// hold their own Sim and skip the detach.
func Run(trace *workload.Trace, cfg Config, opts Options) (*Schedule, error) {
	sm := simPool.Get().(*Sim)
	sched, err := sm.RunInto(trace, cfg, opts)
	sm.Detach()
	simPool.Put(sm)
	return sched, err
}

// Predict runs the fast deterministic Schedule Predictor (§7.2): the same
// scheduling code path as Run with noise disabled.
func Predict(trace *workload.Trace, cfg Config) (*Schedule, error) {
	return Run(trace, cfg, Options{})
}
