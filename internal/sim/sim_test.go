package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// drain steps e until its queue is empty, handing every fired event to
// fire with the clock at its time.
func drain(e *Engine, fire func(now time.Duration, kind uint8, arg int32)) {
	for {
		kind, arg, ok := e.Step()
		if !ok {
			return
		}
		fire(e.Now(), kind, arg)
	}
}

func TestEngineZeroValueUsable(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if _, _, ok := e.Step(); ok {
		t.Fatal("Step() on empty engine returned true")
	}
	if e.Pending(NoEvent) {
		t.Fatal("Pending(NoEvent) = true")
	}
	e.Cancel(NoEvent) // a no-op
}

func TestEventsFireInTimeOrder(t *testing.T) {
	var e Engine
	for i, d := range []time.Duration{5, 1, 3, 2, 4} {
		e.At(d, 0, 0, int32(i))
	}
	var got []time.Duration
	var args []int32
	drain(&e, func(now time.Duration, _ uint8, arg int32) {
		got = append(got, now)
		args = append(args, arg)
	})
	want := []time.Duration{1, 2, 3, 4, 5}
	wantArgs := []int32{1, 3, 2, 4, 0}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] || args[i] != wantArgs[i] {
			t.Errorf("event %d fired at %v with arg %d, want %v with %d", i, got[i], args[i], want[i], wantArgs[i])
		}
	}
}

func TestPriorityBreaksTies(t *testing.T) {
	var e Engine
	e.At(10, 2, 2, 0)
	e.At(10, 0, 0, 0)
	e.At(10, 1, 1, 0)
	var order []uint8
	drain(&e, func(_ time.Duration, kind uint8, _ int32) { order = append(order, kind) })
	for i, v := range order {
		if uint8(i) != v {
			t.Fatalf("order = %v, want [0 1 2]", order)
		}
	}
}

func TestSequenceBreaksEqualPriorityTies(t *testing.T) {
	var e Engine
	for i := 0; i < 10; i++ {
		e.At(7, 0, 0, int32(i))
	}
	var order []int32
	drain(&e, func(_ time.Duration, _ uint8, arg int32) { order = append(order, arg) })
	for i, v := range order {
		if int32(i) != v {
			t.Fatalf("insertion order not preserved: %v", order)
		}
	}
}

func TestCancelSkipsEvent(t *testing.T) {
	var e Engine
	id := e.At(1, 0, 0, 0)
	if !e.Pending(id) {
		t.Fatal("Pending() = false for a scheduled event")
	}
	e.Cancel(id)
	if e.Pending(id) {
		t.Fatal("Pending() = true after Cancel")
	}
	if e.Len() != 0 {
		t.Fatalf("Len() = %d after Cancel, want 0: Cancel removes the event", e.Len())
	}
	e.Cancel(id) // a second Cancel is a no-op
	drain(&e, func(time.Duration, uint8, int32) { t.Fatal("canceled event fired") })
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", e.Fired())
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	var e Engine
	e.At(10, 0, 0, 0)
	var at time.Duration = -1
	drain(&e, func(now time.Duration, kind uint8, _ int32) {
		if kind == 0 {
			e.At(3, 0, 1, 0)
		} else {
			at = now
		}
	})
	if at != 10 {
		t.Fatalf("past event fired at %v, want clamped to 10", at)
	}
}

func TestStepUntilStopsAtHorizon(t *testing.T) {
	var e Engine
	for _, d := range []time.Duration{1, 5, 9, 11, 20} {
		e.At(d, 0, 0, 0)
	}
	var fired []time.Duration
	until := func(h time.Duration) {
		for {
			if _, _, ok := e.StepUntil(h); !ok {
				return
			}
			fired = append(fired, e.Now())
		}
	}
	until(10)
	if len(fired) != 3 {
		t.Fatalf("fired %d events before horizon, want 3 (%v)", len(fired), fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
	if e.Len() != 2 {
		t.Fatalf("Len() = %d pending, want 2", e.Len())
	}
	until(25)
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestStepUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	var e Engine
	if _, _, ok := e.StepUntil(42); ok {
		t.Fatal("StepUntil on an empty engine returned true")
	}
	if e.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", e.Now())
	}
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	var e Engine
	count := 0
	e.At(0, 0, 0, 0)
	drain(&e, func(now time.Duration, _ uint8, _ int32) {
		count++
		if count < 100 {
			e.At(now+1, 0, 0, 0)
		}
	})
	if count != 100 {
		t.Fatalf("chain fired %d times, want 100", count)
	}
	if e.Now() != 99 {
		t.Fatalf("Now() = %v, want 99", e.Now())
	}
}

func TestFiredCounts(t *testing.T) {
	var e Engine
	for i := 0; i < 5; i++ {
		e.At(time.Duration(i), 0, 0, 0)
	}
	drain(&e, func(time.Duration, uint8, int32) {})
	if e.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5", e.Fired())
	}
}

// Reset empties the queue and hands out the same ids again.
func TestResetReusesIds(t *testing.T) {
	var e Engine
	first := e.At(3, 0, 0, 0)
	e.At(1, 0, 0, 0)
	e.Step()
	e.Reset()
	if e.Len() != 0 || e.Now() != 0 || e.Fired() != 0 {
		t.Fatalf("after Reset: Len %d, Now %v, Fired %d", e.Len(), e.Now(), e.Fired())
	}
	if e.Pending(first) {
		t.Fatal("an event from before Reset is still pending")
	}
	if id := e.At(5, 0, 0, 0); id != first {
		t.Fatalf("first id after Reset = %d, want %d", id, first)
	}
}

// Property: events always fire in nondecreasing (Time, Priority) order no
// matter the insertion order.
func TestPropertyFireOrderSorted(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		type key struct {
			t time.Duration
			p uint8
		}
		count := int(n%64) + 1
		for i := 0; i < count; i++ {
			p := uint8(rng.Intn(5))
			e.At(time.Duration(rng.Intn(50)), p, p, 0) // the kind echoes the priority
		}
		var fired []key
		for {
			p, _, ok := e.Step()
			if !ok {
				break
			}
			fired = append(fired, key{e.Now(), p})
		}
		if len(fired) != count {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].t != fired[j].t {
				return fired[i].t < fired[j].t
			}
			return fired[i].p < fired[j].p
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset fires exactly the complement.
func TestPropertyCancelComplement(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		count := int(n%32) + 1
		ids := make([]int32, count)
		for i := range ids {
			ids[i] = e.At(time.Duration(rng.Intn(20)), 0, 0, int32(i))
		}
		canceled := make([]bool, count)
		for i, id := range ids {
			if rng.Intn(2) == 0 {
				e.Cancel(id)
				canceled[i] = true
			}
		}
		ok := true
		fired := 0
		drain(&e, func(_ time.Duration, _ uint8, arg int32) {
			ok = ok && !canceled[arg]
			fired++
		})
		want := 0
		for _, c := range canceled {
			if !c {
				want++
			}
		}
		return ok && fired == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRescheduleMovesEvent(t *testing.T) {
	var e Engine
	id := e.At(5, 0, 0, 0)
	if !e.Reschedule(id, 12) {
		t.Fatal("Reschedule on pending event returned false")
	}
	var at time.Duration = -1
	drain(&e, func(now time.Duration, _ uint8, _ int32) { at = now })
	if at != 12 {
		t.Fatalf("rescheduled event fired at %v, want 12", at)
	}
}

// Cancel removes the event outright, so there is nothing left to revive.
func TestRescheduleRejectsCanceledEvent(t *testing.T) {
	var e Engine
	id := e.At(5, 0, 0, 0)
	e.Cancel(id)
	if e.Reschedule(id, 7) {
		t.Fatal("Reschedule on a canceled event returned true")
	}
	if e.Pending(id) || e.Len() != 0 {
		t.Fatalf("canceled event pending %v, Len %d after a rejected Reschedule", e.Pending(id), e.Len())
	}
}

func TestRescheduleRejectsFiredEvent(t *testing.T) {
	var e Engine
	id := e.At(1, 0, 0, 0)
	drain(&e, func(time.Duration, uint8, int32) {})
	if e.Reschedule(id, 5) {
		t.Fatal("Reschedule on already-fired event returned true")
	}
	if e.Len() != 0 {
		t.Fatalf("Len() = %d after rejected reschedule, want 0", e.Len())
	}
}

func TestRescheduleRejectsPoppedCanceledEvent(t *testing.T) {
	var e Engine
	id := e.At(1, 0, 0, 0)
	e.Cancel(id)
	e.At(2, 0, 0, 0)
	drain(&e, func(time.Duration, uint8, int32) {})
	if e.Reschedule(id, 5) {
		t.Fatal("Reschedule on discarded event returned true")
	}
}

func TestRescheduleClampsToNow(t *testing.T) {
	var e Engine
	late := e.At(20, 0, 1, 0)
	e.At(10, 0, 0, 0)
	var at time.Duration = -1
	drain(&e, func(now time.Duration, kind uint8, _ int32) {
		if kind == 0 {
			e.Reschedule(late, 3) // in the past: clamps to now
		} else {
			at = now
		}
	})
	if at != 10 {
		t.Fatalf("past-rescheduled event fired at %v, want clamped to 10", at)
	}
}

// Reschedule assigns a fresh sequence number, so a rescheduled event
// tie-breaks exactly like Cancel followed by a new At would: later than
// everything scheduled before the reschedule, earlier than everything after.
func TestRescheduleTieBreaksLikeFreshEvent(t *testing.T) {
	var e Engine
	a := e.At(1, 0, 'a', 0)
	e.At(10, 0, 'b', 0)
	e.Reschedule(a, 10)
	e.At(10, 0, 'c', 0)
	var order []byte
	drain(&e, func(_ time.Duration, kind uint8, _ int32) { order = append(order, kind) })
	if string(order) != "bac" {
		t.Fatalf("order = %q, want %q", order, "bac")
	}
}

// Property: a random mix of cancels and reschedules fires each live event
// exactly once, at its final time.
func TestPropertyRescheduleFiresOnceAtFinalTime(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		count := int(n%24) + 1
		fired := make([]int, count)
		finalAt := make([]time.Duration, count)
		firedAt := make([]time.Duration, count)
		ids := make([]int32, count)
		for i := range ids {
			finalAt[i] = time.Duration(rng.Intn(30))
			ids[i] = e.At(finalAt[i], 0, 0, int32(i))
		}
		live := make([]bool, count)
		for i := range live {
			live[i] = true
		}
		for op := 0; op < count*2; op++ {
			i := rng.Intn(count)
			switch rng.Intn(3) {
			case 0:
				e.Cancel(ids[i])
				live[i] = false
			case 1:
				to := time.Duration(rng.Intn(30))
				if e.Reschedule(ids[i], to) {
					finalAt[i] = to
					live[i] = true
				}
			}
		}
		drain(&e, func(now time.Duration, _ uint8, arg int32) {
			fired[arg]++
			firedAt[arg] = now
		})
		for i := range fired {
			if !live[i] && fired[i] != 0 {
				return false
			}
			if live[i] && (fired[i] != 1 || firedAt[i] != finalAt[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: under any interleaving of At, Cancel, Reschedule and Step, the
// engine fires exactly what a linear scan for the least (time, priority,
// seq) among the live events would fire.
func TestPropertyDispatchMatchesLinearScan(t *testing.T) {
	type ref struct {
		t    time.Duration
		p    uint8
		seq  int
		live bool
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		var model []ref
		seq := 0
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 4:
				t := e.Now() + time.Duration(rng.Intn(20))
				p := uint8(rng.Intn(4))
				if id := e.At(t, p, 0, int32(len(model))); int(id) != len(model) {
					return false
				}
				model = append(model, ref{t, p, seq, true})
				seq++
			case r < 5 && len(model) > 0:
				i := rng.Intn(len(model))
				e.Cancel(int32(i))
				model[i].live = false
			case r < 6 && len(model) > 0:
				i := rng.Intn(len(model))
				to := e.Now() + time.Duration(rng.Intn(20))
				if e.Reschedule(int32(i), to) != model[i].live {
					return false
				}
				if model[i].live {
					model[i].t, model[i].seq = to, seq
					seq++
				}
			default:
				want := -1
				for i, m := range model {
					if !m.live {
						continue
					}
					if w := model[max(want, 0)]; want < 0 || m.t < w.t || m.t == w.t && (m.p < w.p || m.p == w.p && m.seq < w.seq) {
						want = i
					}
				}
				_, arg, ok := e.Step()
				if ok != (want >= 0) || ok && int(arg) != want {
					return false
				}
				if ok {
					model[want].live = false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	var e Engine
	for i := 0; i < b.N; i++ {
		e.Reset()
		for j := 0; j < 1000; j++ {
			e.At(time.Duration(j%97), uint8(j%3), 0, int32(j))
		}
		for {
			if _, _, ok := e.Step(); !ok {
				break
			}
		}
	}
}
