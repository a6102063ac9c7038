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
// An event is a value: a caller-defined kind tag and an int32 argument
// that indexes the caller's own state. The engine hands both back from
// Step and the caller dispatches them itself, so the engine holds no
// pointer, interface or func value and the collector never scans its
// storage. Reset truncates that storage, so a reused Engine schedules and
// dispatches without heap allocation.
package sim

import (
	"math/bits"
	"time"
)

// NoEvent is the id of no event. Pending reports false for it and Cancel
// ignores it, so a caller can keep it in a field that has no event yet.
const NoEvent int32 = -1

// entry is one queued event. The heap compares entries in place: time
// first, then ord, which packs priority, sequence number and kind from the
// top bit down, so (time, priority, seq) is two integer comparisons (seq
// is unique, so the kind bits never decide). ref packs the event id (high
// half) and argument (low half) into one word: a sift spills the entry it
// carries, and reloading two 32-bit halves as one word stalls on store
// forwarding.
type entry struct {
	time time.Duration
	ord  uint64
	ref  uint64
}

func (en *entry) id() int32  { return int32(en.ref >> 32) }
func (en *entry) arg() int32 { return int32(uint32(en.ref)) }

// prioShift and seqShift place the priority and the sequence number
// inside entry.ord; the kind takes the low byte.
const (
	prioShift = 56
	seqShift  = 8
)

func (a *entry) before(b *entry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.ord < b.ord
}

// less is before as 0 or 1, without branches: the borrow out of the
// 128-bit subtraction (a.time, a.ord) - (b.time, b.ord). Times are never
// negative (At clamps them to Now), so they compare as unsigned. Which
// child is earlier is a coin toss to the branch predictor.
func (a *entry) less(b *entry) uint64 {
	_, borrow := bits.Sub64(a.ord, b.ord, 0)
	_, borrow = bits.Sub64(uint64(a.time), uint64(b.time), borrow)
	return borrow
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	heap []entry
	// pos maps an event id to its slot in heap, or -1 once the event has
	// fired or been cancelled. Ids are handed out in scheduling order and
	// never reused before Reset.
	pos   []int32
	now   time.Duration
	seq   uint64
	fired int
}

// Reset returns the engine to its zero state — empty queue, time 0,
// sequence 0 — keeping its backing arrays for reuse. Event ids handed out
// before the Reset are invalidated: the next run hands out the same ids
// again.
func (e *Engine) Reset() {
	e.heap = e.heap[:0]
	e.pos = e.pos[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events dispatched so far.
//
//tempolint:ignore testonly cluster's TestKernelCounters and BenchmarkSchedulerKernel count events with it
func (e *Engine) Fired() int { return e.fired }

// At schedules an event of the given kind and argument at time t with the
// given tie-break priority (lower fires first) and returns its id.
// Scheduling in the past (t < Now) is clamped to Now: the event fires
// next.
func (e *Engine) At(t time.Duration, priority, kind uint8, arg int32) int32 {
	if t < e.now {
		t = e.now
	}
	id := int32(len(e.pos))
	e.pos = append(e.pos, 0)
	e.heap = append(e.heap, entry{})
	e.up(len(e.heap)-1, entry{time: t, ord: e.nextOrd(priority, kind), ref: uint64(id)<<32 | uint64(uint32(arg))})
	return id
}

func (e *Engine) nextOrd(priority, kind uint8) uint64 {
	ord := uint64(priority)<<prioShift | e.seq<<seqShift | uint64(kind)
	e.seq++
	return ord
}

// Pending reports whether the event is still queued: scheduled, and
// neither fired nor cancelled.
func (e *Engine) Pending(id int32) bool {
	return id >= 0 && int(id) < len(e.pos) && e.pos[id] >= 0
}

// Cancel removes a pending event from the queue; it will not fire.
// Cancelling NoEvent or an event that already fired or was cancelled is a
// no-op. Removal leaves the order of the remaining events unchanged, since
// (time, priority, seq) is a strict total order.
func (e *Engine) Cancel(id int32) {
	if !e.Pending(id) {
		return
	}
	i := int(e.pos[id])
	e.pos[id] = -1
	last := len(e.heap) - 1
	moved := e.heap[last]
	e.heap = e.heap[:last]
	if i < last {
		e.fix(i, moved)
	}
}

// Step dispatches the next pending event: it advances the clock to the
// event's time and returns the event's kind and argument for the caller to
// act on. It reports false when the queue is empty.
func (e *Engine) Step() (kind uint8, arg int32, ok bool) {
	if len(e.heap) == 0 {
		return 0, 0, false
	}
	return e.pop()
}

// StepUntil is Step restricted to events with time <= horizon. When no
// such event is pending it leaves the queue alone, advances the clock to
// horizon if it is behind, and reports false.
func (e *Engine) StepUntil(horizon time.Duration) (kind uint8, arg int32, ok bool) {
	if len(e.heap) == 0 || e.heap[0].time > horizon {
		if e.now < horizon {
			e.now = horizon
		}
		return 0, 0, false
	}
	return e.pop()
}

// pop removes the earliest event and fires it. The queue must not be
// empty.
func (e *Engine) pop() (kind uint8, arg int32, ok bool) {
	top := e.heap[0]
	e.pos[top.id()] = -1
	last := len(e.heap) - 1
	moved := e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.down(0, moved)
	}
	e.now = top.time
	e.fired++
	return uint8(top.ord), top.arg(), true
}

// The heap is a binary min-heap on entry.before, written out for value
// entries. A sift moves a hole, not an entry: the entry being placed
// travels as an argument, in registers, and is stored once at its final
// slot. (Reading it back from its slot right after it was written field
// by field stalls on store forwarding, at about a tenth of a run's time.)
// Every move keeps pos in step. The key is a strict total order (seq is
// unique), so the pop sequence is the one any correct heap would produce.

// fix places en at slot i, whose previous key may differ, and restores
// the heap order.
func (e *Engine) fix(i int, en entry) {
	if !e.down(i, en) {
		e.up(i, en)
	}
}

// up places en at the hole i, moving it toward the root until its parent
// is earlier.
func (e *Engine) up(i int, en entry) {
	h, pos := e.heap, e.pos
	for i > 0 {
		p := (i - 1) / 2
		if !en.before(&h[p]) {
			break
		}
		h[i] = h[p]
		pos[h[i].id()] = int32(i)
		i = p
	}
	h[i] = en
	pos[en.id()] = int32(i)
}

// down places en at the hole i0, moving it toward the leaves until no
// child is earlier, and reports whether it moved.
func (e *Engine) down(i0 int, en entry) bool {
	h, pos := e.heap, e.pos
	n := len(h)
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n {
			c += int(h[r].less(&h[c]))
		}
		if !h[c].before(&en) {
			break
		}
		h[i] = h[c]
		pos[h[i].id()] = int32(i)
		i = c
	}
	h[i] = en
	pos[en.id()] = int32(i)
	return i > i0
}
