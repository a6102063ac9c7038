// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate shared by the cluster emulator and the
// schedule predictor (internal/cluster). Following the "time warp" style of
// simulation described in the Tempo paper (§7.2), state is advanced only at
// discrete event instants — task submissions, tentative finishes, and
// possible preemption times — rather than by ticking a wall clock. This is
// what makes schedule prediction fast enough to sit inside an optimizer
// loop.
//
// Events with equal timestamps are delivered in a total order defined by
// (time, priority, sequence number), so a simulation run is exactly
// reproducible given the same inputs.
//
// A reused Engine (Reset between runs) schedules and dispatches without
// heap allocation: events come from a recycled arena, the queue is a
// hand-written heap on []*Event that keeps its backing array, and AtArg
// events carry their state in an argument instead of a fresh closure.
package sim

import (
	"time"

	"tempo/internal/arena"
)

// Event is a unit of work scheduled at a virtual time instant.
type Event struct {
	// Time is the virtual time at which the event fires.
	Time time.Duration
	// Priority breaks ties between events with the same Time. Lower values
	// fire first. Engines use this to impose a deterministic ordering
	// between event kinds (e.g. finishes before submissions at the same
	// instant).
	Priority int
	// Fire is invoked when the event is dispatched. It may schedule
	// further events. Events scheduled with AtArg leave Fire nil and
	// dispatch through fireArg instead.
	Fire func(now time.Duration)

	// fireArg and arg are the allocation-lean dispatch path (AtArg): the
	// handler is shared across events and the per-event state rides in arg,
	// so scheduling an event does not capture a closure.
	fireArg func(now time.Duration, arg any)
	arg     any

	seq      uint64
	index    int
	canceled bool
}

// Cancel marks the event so it will be skipped when reached. Canceling an
// already-fired or already-canceled event is a no-op.
func (e *Event) Cancel() { e.canceled = true }

// Canceled reports whether Cancel has been called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	queue eventQueue
	now   time.Duration
	seq   uint64
	fired int

	// Event arena: fixed-size blocks recycled by Reset, so a reused engine
	// schedules events without per-event heap allocations. Pointers into
	// blocks stay valid until Reset.
	events arena.Arena[Event]
}

// Reset returns the engine to its zero state — empty queue, time 0,
// sequence 0 — while keeping the queue's backing array and the event arena
// for reuse. Event pointers obtained before the Reset are invalidated:
// the next run's events are served from the same arena blocks. Reset is
// what makes one Engine value reusable across many simulation runs without
// re-allocating its event storage.
func (e *Engine) Reset() {
	for i := range e.queue {
		e.queue[i] = nil
	}
	e.queue = e.queue[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.events.Reset()
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events dispatched so far.
func (e *Engine) Fired() int { return e.fired }

// Len returns the number of pending (possibly canceled) events.
func (e *Engine) Len() int { return len(e.queue) }

// At schedules fn to run at time t with the given tie-break priority and
// returns the scheduled event, which the caller may Cancel. Scheduling in
// the past (t < Now) is clamped to Now: the event fires next.
func (e *Engine) At(t time.Duration, priority int, fn func(now time.Duration)) *Event {
	if t < e.now {
		t = e.now
	}
	ev := e.events.Get()
	ev.Time, ev.Priority, ev.Fire, ev.seq = t, priority, fn, e.seq
	e.seq++
	e.queue.push(ev)
	return ev
}

// AtArg schedules fn(t, arg) like At, but through a handler that is shared
// across events: the per-event state travels in arg instead of a captured
// closure, so hot loops that schedule one event per task do not allocate a
// closure per event. A pointer-typed arg also avoids the interface boxing
// allocation.
func (e *Engine) AtArg(t time.Duration, priority int, fn func(now time.Duration, arg any), arg any) *Event {
	if t < e.now {
		t = e.now
	}
	ev := e.events.Get()
	ev.Time, ev.Priority, ev.fireArg, ev.arg, ev.seq = t, priority, fn, arg, e.seq
	e.seq++
	e.queue.push(ev)
	return ev
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d time.Duration, priority int, fn func(now time.Duration)) *Event {
	return e.At(e.now+d, priority, fn)
}

// Reschedule moves a still-pending event to fire at time t (clamped to
// Now, like At) and clears its canceled mark, so a canceled-but-unpopped
// event can be revived in place. The event is assigned a fresh sequence
// number, making the result indistinguishable from Cancel followed by a new
// At — but in O(log n), re-sifted in place, without allocating or leaving
// a dead entry in the queue. It reports whether the event was still pending;
// an event that already fired or was discarded cannot be rescheduled.
func (e *Engine) Reschedule(ev *Event, t time.Duration) bool {
	if ev == nil || ev.index < 0 || ev.index >= len(e.queue) || e.queue[ev.index] != ev {
		return false
	}
	if t < e.now {
		t = e.now
	}
	ev.Time = t
	ev.canceled = false
	ev.seq = e.seq
	e.seq++
	e.queue.fix(ev.index)
	return true
}

// Step dispatches the next pending event, skipping canceled ones, and
// reports whether an event was dispatched.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.canceled {
			continue
		}
		e.now = ev.Time
		e.fired++
		if ev.fireArg != nil {
			ev.fireArg(e.now, ev.arg)
		} else {
			ev.Fire(e.now)
		}
		return true
	}
	return false
}

// Run dispatches events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with Time <= horizon. The clock is left at the
// later of its current value and horizon.
func (e *Engine) RunUntil(horizon time.Duration) {
	for len(e.queue) > 0 {
		next := e.peek()
		if next == nil {
			break
		}
		if next.Time > horizon {
			break
		}
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// peek returns the next non-canceled event without removing it, or nil.
func (e *Engine) peek() *Event {
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if !ev.canceled {
			return ev
		}
		e.queue.pop()
	}
	return nil
}

// eventQueue is a binary min-heap on (Time, Priority, seq), written out
// for *Event rather than reached through container/heap: the sift loops
// compare and move pointers directly instead of making a dynamic Less and
// Swap call per step, and pop returns a *Event instead of boxing it into
// an interface. Every move keeps Event.index equal to the event's slot,
// which is what Reschedule's membership check and fix rely on; a popped
// event's index is -1. The key is a strict total order (seq is unique),
// so the pop sequence is the one any correct heap would produce.
type eventQueue []*Event

// before is the heap order: earlier time, then lower priority, then
// earlier scheduling.
func (a *Event) before(b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(ev *Event) {
	*q = append(*q, ev)
	q.up(len(*q) - 1)
}

// pop removes and returns the earliest event. The queue must not be empty.
func (q *eventQueue) pop() *Event {
	h := *q
	n := len(h) - 1
	ev := h[0]
	h[0] = h[n]
	h[n] = nil
	*q = h[:n]
	if n > 0 {
		q.down(0)
	}
	ev.index = -1 // no longer in the heap: rejects late Reschedule calls
	return ev
}

// fix restores the heap order after the key of the event at i changed.
func (q eventQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

// up moves the event at i toward the root until its parent is earlier.
func (q eventQueue) up(i int) {
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		parent := q[p]
		if !ev.before(parent) {
			break
		}
		q[i] = parent
		parent.index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down moves the event at i0 toward the leaves until no child is earlier,
// and reports whether it moved.
func (q eventQueue) down(i0 int) bool {
	n := len(q)
	ev := q[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		child := q[c]
		if !child.before(ev) {
			break
		}
		q[i] = child
		child.index = i
		i = c
	}
	q[i] = ev
	ev.index = i
	return i > i0
}
