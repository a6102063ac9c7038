//tempolint:deterministic

package store

import (
	"encoding/binary"
	"fmt"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/workload"
)

// Tick-record codec. One WAL record carries one committed tick: the tick
// index, the observed schedule's capacity and horizon, and its canonical
// event stream (cluster.Schedule.Events). The encoding is a pure function
// of the schedule — same observation, same bytes — and DecodeTick +
// cluster.ReplaySchedule invert it exactly, which is what makes a
// recovered trajectory byte-identical to the live one.
//
// The layout is uvarint-packed, with Delta omitted (it is a function of
// the event kind) and per-kind fields only where meaningful:
//
//	record  := tick capacity horizon nEvents event*
//	event   := time kind seq tenant jobID kindFields
//	string  := len bytes
//
// All integers are uvarints; kind and the task/outcome enums are single
// bytes (their value ranges are frozen by the event contract).

// EncodeTick appends the record for (tick, sched) to dst and returns the
// extended slice.
func EncodeTick(dst []byte, tick int, sched *cluster.Schedule) []byte {
	dst = binary.AppendUvarint(dst, uint64(tick))
	dst = binary.AppendUvarint(dst, uint64(sched.Capacity))
	dst = binary.AppendUvarint(dst, uint64(sched.Horizon))
	events := sched.Events()
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	for i := range events {
		ev := &events[i]
		dst = binary.AppendUvarint(dst, uint64(ev.Time))
		dst = append(dst, byte(ev.Kind))
		dst = binary.AppendUvarint(dst, uint64(ev.Seq))
		dst = appendString(dst, ev.Tenant)
		dst = appendString(dst, ev.JobID)
		switch ev.Kind {
		case cluster.EventJobSubmit:
			dst = binary.AppendUvarint(dst, uint64(ev.Deadline))
		case cluster.EventTaskStart:
			dst = append(dst, byte(ev.TaskKind))
			dst = binary.AppendUvarint(dst, uint64(ev.Attempt))
		case cluster.EventTaskEnd:
			dst = append(dst, byte(ev.TaskKind))
			dst = binary.AppendUvarint(dst, uint64(ev.Attempt))
			dst = append(dst, byte(ev.Outcome))
		case cluster.EventJobFinish:
			var flags byte
			if ev.Completed {
				flags |= 1
			}
			if ev.Killed {
				flags |= 2
			}
			dst = append(dst, flags)
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeTick inverts EncodeTick, rebuilding the schedule via
// cluster.ReplaySchedule.
func DecodeTick(payload []byte) (tick int, sched *cluster.Schedule, err error) {
	d := decoder{buf: payload}
	tick = int(d.uvarint())
	capacity := int(d.uvarint())
	horizon := time.Duration(d.uvarint())
	n := d.uvarint()
	if d.err != nil {
		return 0, nil, d.err
	}
	if n > uint64(len(payload)) {
		// Each event costs at least one byte, so a count beyond the payload
		// length is corruption; fail before allocating for it.
		return 0, nil, fmt.Errorf("store: event count %d exceeds payload size %d", n, len(payload))
	}
	evs := make([]cluster.Event, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		ev := cluster.Event{
			Time: time.Duration(d.uvarint()),
			Kind: cluster.EventKind(d.byte()),
		}
		seq := d.uvarint()
		if d.err == nil && seq >= n {
			// Seq indexes a record and every record emits two events;
			// ReplaySchedule sizes its record slices from the largest Seq, so
			// an unbounded one is an allocation the payload never paid for.
			d.err = fmt.Errorf("store: event seq %d out of range for %d events", seq, n)
		}
		ev.Seq = int(seq)
		ev.Tenant = d.string()
		ev.JobID = d.string()
		switch ev.Kind {
		case cluster.EventJobSubmit:
			ev.Deadline = time.Duration(d.uvarint())
		case cluster.EventTaskStart:
			ev.TaskKind = workload.TaskKind(d.byte())
			ev.Attempt = int(d.uvarint())
			ev.Delta = +1
		case cluster.EventTaskEnd:
			ev.TaskKind = workload.TaskKind(d.byte())
			ev.Attempt = int(d.uvarint())
			ev.Outcome = cluster.TaskOutcome(d.byte())
			ev.Delta = -1
		case cluster.EventJobFinish:
			flags := d.byte()
			ev.Completed = flags&1 != 0
			ev.Killed = flags&2 != 0
		default:
			if d.err == nil {
				d.err = fmt.Errorf("store: unknown event kind %d", ev.Kind)
			}
		}
		evs = append(evs, ev)
	}
	if d.err != nil {
		return 0, nil, d.err
	}
	if len(d.buf) != 0 {
		return 0, nil, fmt.Errorf("store: %d trailing bytes after tick record", len(d.buf))
	}
	return tick, cluster.ReplaySchedule(capacity, horizon, evs), nil
}

// decoder is a cursor over a record payload; the first malformed read
// latches err and every later read returns zero.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("store: truncated uvarint in tick record")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.err = fmt.Errorf("store: truncated byte in tick record")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("store: truncated string in tick record")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}
