// Package pool is the poolsafety fixture: a miniature of the repo's
// borrowed-records contract ((*Sim).RunInto borrows, Detach transfers ownership)
// plus sync.Pool Get/Put cycles.
package pool

import "sync"

type Schedule struct{ Tasks []int }

type Sim struct{ buf []int }

func (s *Sim) RunInto(n int) (*Schedule, error) { return &Schedule{Tasks: s.buf[:0]}, nil }

func (s *Sim) Detach() { s.buf = nil }

var simPool = sync.Pool{New: func() any { return new(Sim) }}

func escapeReturn(sm *Sim) *Schedule {
	sched, _ := sm.RunInto(1)
	return sched // want `returning schedule "sched" borrowed from Sim "sm" without Detach`
}

func detachedReturnOK(sm *Sim) *Schedule {
	sched, _ := sm.RunInto(1)
	sm.Detach()
	return sched
}

type holder struct{ last *Schedule }

func escapeStore(h *holder, sm *Sim) {
	sched, _ := sm.RunInto(1)
	h.last = sched // want `storing schedule "sched" borrowed from Sim "sm" without Detach`
}

func escapeSend(ch chan *Schedule, sm *Sim) {
	sched, _ := sm.RunInto(1)
	ch <- sched // want `sending schedule "sched" borrowed from Sim "sm" without Detach`
}

func escapeGlobal(sm *Sim) {
	sched, _ := sm.RunInto(1)
	//tempolint:ignore poolsafety fixture: demonstrates an accepted suppression of a real escape
	lastSchedule = sched
}

var lastSchedule *Schedule

func scoreLocallyOK(sm *Sim) int {
	sched, _ := sm.RunInto(1)
	return len(sched.Tasks)
}

func localRebindOK(sm *Sim) *Schedule {
	sched, _ := sm.RunInto(1)
	_ = sched
	sm.Detach()
	other, _ := sm.RunInto(2)
	sm.Detach()
	return other
}

func useAfterPut() int {
	sm := simPool.Get().(*Sim)
	simPool.Put(sm)
	return len(sm.buf) // want `use of "sm" after it was returned to the pool by Put`
}

func getUsePutOK() int {
	sm := simPool.Get().(*Sim)
	sched, _ := sm.RunInto(1)
	n := len(sched.Tasks)
	sm.Detach()
	simPool.Put(sm)
	return n
}

func deferPutOK() int {
	sm := simPool.Get().(*Sim)
	defer simPool.Put(sm)
	sched, _ := sm.RunInto(1)
	return len(sched.Tasks) + len(sm.buf)
}

func reGetOK() *Sim {
	sm := simPool.Get().(*Sim)
	simPool.Put(sm)
	sm = simPool.Get().(*Sim)
	return sm
}
