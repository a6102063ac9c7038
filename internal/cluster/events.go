package cluster

import (
	"slices"
	"time"

	"tempo/internal/workload"
)

// This file defines the canonical event-stream view of a Schedule. It
// carries the same information as the record view (Schedule.Jobs / Tasks)
// and serves the consumer whose contract is a stream: internal/query's
// "events" relation. QS evaluation and the WAL's tick codec
// (internal/store) read the records in place, not this view. The stream
// is a pure function of the schedule: same records, same bytes of events,
// in the same order.

// EventKind classifies one schedule event.
type EventKind uint8

// The event kinds, in their canonical same-instant order. Ties in Time are
// broken by causality: a job submits before its tasks start, and a task
// ends before its job finishes. Task intervals are half-open [Start, End),
// so with starts ordered before ends at the same instant the running
// allocation count (sum of Delta) never goes negative, even for
// zero-length attempts.
const (
	// EventJobSubmit marks a job entering the system; it carries the job's
	// deadline (zero means none).
	EventJobSubmit EventKind = iota
	// EventTaskStart marks a container being occupied by a task attempt
	// (allocation Delta +1).
	EventTaskStart
	// EventTaskEnd marks the attempt releasing its container (allocation
	// Delta -1); it carries the attempt's outcome.
	EventTaskEnd
	// EventJobFinish marks the job's terminal record: completion, kill, or
	// horizon truncation.
	EventJobFinish
)

func (k EventKind) String() string {
	switch k {
	case EventJobSubmit:
		return "job-submit"
	case EventTaskStart:
		return "task-start"
	case EventTaskEnd:
		return "task-end"
	case EventJobFinish:
		return "job-finish"
	}
	return "unknown"
}

// Event is one element of a schedule's canonical event stream. Together the
// four kinds carry every field of the record view.
type Event struct {
	// Time is the virtual time of the event.
	Time time.Duration
	// Kind selects which of the remaining fields are meaningful.
	Kind EventKind
	// Seq is the index of the underlying record: into Schedule.Jobs for job
	// events, into Schedule.Tasks for task events. Together with Kind it
	// makes every event unique, which is what makes the stream's order
	// total.
	Seq int
	// Tenant and JobID name the owner on every kind: the stream resolves
	// the records' numbers to names.
	Tenant string
	JobID  string
	// Delta is the container-allocation change: +1 on EventTaskStart, -1 on
	// EventTaskEnd, 0 on job events. Deltas over any completed stream sum
	// to zero.
	Delta int
	// Deadline is meaningful on EventJobSubmit (zero means none).
	Deadline time.Duration
	// Completed and Killed are meaningful on EventJobFinish.
	Completed bool
	Killed    bool
	// TaskKind and Attempt are meaningful on task events.
	TaskKind workload.TaskKind
	Attempt  int
	// Outcome is meaningful on EventTaskEnd.
	Outcome TaskOutcome
}

// EventBuf is a reusable buffer set for repeated event-stream extraction:
// AppendEvents serves the stream from the buffer's storage, so a consumer
// that extracts many streams (a standing "events" query, one per tick)
// stops allocating one event array plus four index arrays per schedule.
// The zero value is ready to use.
type EventBuf struct {
	events []Event
	idx    []int32
}

// Events returns the schedule as its canonical ordered event stream: one
// EventJobSubmit/EventJobFinish pair per job record and one
// EventTaskStart/EventTaskEnd pair per task attempt, sorted by Time, then
// by Kind (submit < task-start < task-end < job-finish), then by Seq: a
// total order, because (Kind, Seq) is unique per event.
// Every job record emits a finish event even when the job did not complete
// (the record's Finish then marks the kill or horizon-truncation time), so
// the stream always carries the full record view.
func (s *Schedule) Events() []Event {
	return s.AppendEvents(&EventBuf{})
}

// AppendEvents is Events serving from a reusable buffer: the returned
// stream is valid until buf's next use. The bytes of the stream are
// identical to Events'.
//
// The stream is assembled as a four-way merge of per-kind cursors over
// index-sorted record views rather than one big sort: each Event (a large,
// pointer-carrying struct) is written exactly once, and the index sorts
// are nearly no-ops on emulator output, whose Jobs and Tasks already come
// in submit and start order.
func (s *Schedule) AppendEvents(buf *EventBuf) []Event {
	nj, nt := len(s.Jobs), len(s.Tasks)
	if need := 2*nj + 2*nt; cap(buf.idx) < need {
		buf.idx = make([]int32, need)
	}
	idx := buf.idx[:2*nj+2*nt]
	submitIdx := sortedIndexInto(idx[0:nj], func(i, j int32) bool {
		a, b := s.Jobs[i].Submit, s.Jobs[j].Submit
		return a < b || (a == b && i < j)
	})
	finishIdx := sortedIndexInto(idx[nj:2*nj], func(i, j int32) bool {
		a, b := s.Jobs[i].Finish, s.Jobs[j].Finish
		return a < b || (a == b && i < j)
	})
	startIdx := sortedIndexInto(idx[2*nj:2*nj+nt], func(i, j int32) bool {
		a, b := s.Tasks[i].Start, s.Tasks[j].Start
		return a < b || (a == b && i < j)
	})
	endIdx := sortedIndexInto(idx[2*nj+nt:], func(i, j int32) bool {
		a, b := s.Tasks[i].End, s.Tasks[j].End
		return a < b || (a == b && i < j)
	})

	if need := 2*nj + 2*nt; cap(buf.events) < need {
		buf.events = make([]Event, 0, need)
	}
	events := buf.events[:0]
	total := 2*nj + 2*nt
	var js, jf, ts, te int
	for len(events) < total {
		bestKind := EventKind(255)
		var bestTime time.Duration
		var bestSeq int32
		consider := func(kind EventKind, at time.Duration, seq int32) {
			if bestKind == 255 || at < bestTime || (at == bestTime && kind < bestKind) {
				bestKind, bestTime, bestSeq = kind, at, seq
			}
		}
		if js < nj {
			i := submitIdx[js]
			consider(EventJobSubmit, s.Jobs[i].Submit, i)
		}
		if ts < nt {
			i := startIdx[ts]
			consider(EventTaskStart, s.Tasks[i].Start, i)
		}
		if te < nt {
			i := endIdx[te]
			consider(EventTaskEnd, s.Tasks[i].End, i)
		}
		if jf < nj {
			i := finishIdx[jf]
			consider(EventJobFinish, s.Jobs[i].Finish, i)
		}
		switch bestKind {
		case EventJobSubmit:
			j := &s.Jobs[bestSeq]
			events = append(events, Event{
				Time: j.Submit, Kind: EventJobSubmit, Seq: int(bestSeq),
				Tenant: s.TenantNames[j.Tenant], JobID: j.ID, Deadline: j.Deadline,
			})
			js++
		case EventTaskStart:
			t := &s.Tasks[bestSeq]
			events = append(events, Event{
				Time: t.Start, Kind: EventTaskStart, Seq: int(bestSeq),
				Tenant: s.TenantNames[t.Tenant], JobID: s.Jobs[t.Job].ID, Delta: +1,
				TaskKind: t.Kind, Attempt: t.Attempt,
			})
			ts++
		case EventTaskEnd:
			t := &s.Tasks[bestSeq]
			events = append(events, Event{
				Time: t.End, Kind: EventTaskEnd, Seq: int(bestSeq),
				Tenant: s.TenantNames[t.Tenant], JobID: s.Jobs[t.Job].ID, Delta: -1,
				TaskKind: t.Kind, Attempt: t.Attempt, Outcome: t.Outcome,
			})
			te++
		case EventJobFinish:
			j := &s.Jobs[bestSeq]
			events = append(events, Event{
				Time: j.Finish, Kind: EventJobFinish, Seq: int(bestSeq),
				Tenant: s.TenantNames[j.Tenant], JobID: j.ID, Completed: j.Completed, Killed: j.Killed,
			})
			jf++
		}
	}
	buf.events = events
	return events
}

// sortedIndexInto fills idx with [0, len(idx)) sorted by the comparator.
// Ties never occur: every less function falls back to index order.
func sortedIndexInto(idx []int32, less func(i, j int32) bool) []int32 {
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if less(a, b) {
			return -1
		}
		return 1
	})
	return idx
}

// FNV-1a's 64-bit parameters, but a whole word absorbed per multiply where
// FNV-1a absorbs a byte: Config's fingerprint is an in-process
// pre-filter, persisted nowhere and always verified exactly, so only
// speed and sensitivity to every field matter.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvUint64(h, v uint64) uint64 { return (h ^ v) * fnvPrime64 }

// fnvString absorbs the length, then the bytes eight at a time
// (little-endian), then the zero-padded tail.
func fnvString(h uint64, s string) uint64 {
	h = fnvUint64(h, uint64(len(s)))
	i := 0
	for ; i+8 <= len(s); i += 8 {
		h = fnvUint64(h, uint64(s[i])|uint64(s[i+1])<<8|uint64(s[i+2])<<16|uint64(s[i+3])<<24|
			uint64(s[i+4])<<32|uint64(s[i+5])<<40|uint64(s[i+6])<<48|uint64(s[i+7])<<56)
	}
	var tail uint64
	for shift := 0; i < len(s); i, shift = i+1, shift+8 {
		tail |= uint64(s[i]) << shift
	}
	return fnvUint64(h, tail)
}

// Equal reports whether two schedules have identical record views, with
// each record's tenant and job resolved to their names: the tenant tables
// may differ in order and in the unused tenants they list.
func (s *Schedule) Equal(o *Schedule) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.Capacity != o.Capacity || s.Horizon != o.Horizon ||
		len(s.Jobs) != len(o.Jobs) || len(s.Tasks) != len(o.Tasks) {
		return false
	}
	for i := range s.Jobs {
		a, b := s.Jobs[i], o.Jobs[i]
		if s.TenantNames[a.Tenant] != o.TenantNames[b.Tenant] {
			return false
		}
		a.Tenant, b.Tenant = 0, 0
		if a != b {
			return false
		}
	}
	for i := range s.Tasks {
		a, b := s.Tasks[i], o.Tasks[i]
		if s.TenantNames[a.Tenant] != o.TenantNames[b.Tenant] || s.Jobs[a.Job].ID != o.Jobs[b.Job].ID {
			return false
		}
		a.Tenant, b.Tenant, a.Job, b.Job = 0, 0, 0, 0
		if a != b {
			return false
		}
	}
	return true
}
