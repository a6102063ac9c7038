//tempolint:deterministic

package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/core"
	"tempo/internal/pald"
	"tempo/internal/scenario"
	"tempo/internal/workload"
)

// The store's two encodings live in this file and share one set of
// primitives and one latching decoder: the WAL's tick record, described
// here, and snapshot.bin, whose grammar stands above EncodeSnapshot.
//
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
	return new(tickDecoder).decode(payload)
}

// tickDecoder carries what one WAL's records share across DecodeTick
// calls: the event scratch (ReplaySchedule copies what it keeps and
// retains nothing, so the next record overwrites it) and the name table
// (each distinct tenant and job name is allocated once, not per event).
type tickDecoder struct {
	events []cluster.Event
	names  map[string]string
}

func (t *tickDecoder) decode(payload []byte) (tick int, sched *cluster.Schedule, err error) {
	if t.names == nil {
		t.names = map[string]string{}
	}
	d := decoder{buf: payload, names: t.names}
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
	if uint64(cap(t.events)) < n {
		t.events = make([]cluster.Event, 0, n)
	}
	evs := t.events[:0]
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

// Snapshot codec. snapshot.bin holds one scenario.Snapshot, built from the
// tick codec's primitives plus two more: a float64 is its
// math.Float64bits, little-endian (exact by bit pattern — NaN payloads,
// -0 and subnormals survive), and every slice, map and pointer leads with
// a tag byte so nil and empty stay distinct ("observed": null versus []
// in the canonical report). Like the tick codec it is a pure function of
// its input: Config.Tenants is written in ascending name order, and the
// wall-clock SearchStats.DecisionNanos is not written at all (it restores
// as zero), so two runs of one spec and seed write the same bytes.
//
//	snapshot   := format cursor slice(iteration) pointer(controller)
//	iteration  := index capacity floats switched reverted submitted completed
//	              killed deadlineJobs deadlineMisses preemptions useful wasted
//	controller := config floats config floats hasPrev slice(target) floats
//	              slice(history) pointer(optimizer)
//	config     := totalContainers slice(tenant)     names strictly ascending
//	tenant     := string weight minShare maxShare shareTimeout minShareTimeout
//	target     := r constrained
//	history    := index config floats floats reverted switched pointer(search)
//	search     := candidates fullyScored warmStarted pruned simsRun simsReused
//	optimizer  := draws slice(floats) slice(floats)
//	floats     := slice(float)
//	slice(T)   := 0 | 1 count T*                    0 is nil, "1 0" is empty
//	pointer(T) := 0 | 1 T
//
// The search production's pruned slot is always 0 in snapshots this
// version writes: the controller scores every candidate. The slot stays
// so the format does not change.
//
// format is the byte 1; integers are uvarints (a negative int is its
// two's-complement uint64); bools are one byte, 0 or 1. The decoder
// checks every count against the bytes left before allocating for it,
// rejects any tag or bool byte other than 0 and 1, and treats trailing
// bytes as an error — so every strict prefix of a snapshot is rejected.
const (
	snapshotFormat = 1

	tagNil     = 0
	tagPresent = 1

	// The fewest bytes one element of each slice can occupy: the bound a
	// count is held to before its slice is allocated.
	minFloat     = 8
	minFloats    = 1
	minTarget    = 9
	minTenant    = 13
	minIteration = 27
	minHistory   = 8
)

// EncodeSnapshot appends snap's encoding to dst and returns the extended
// slice.
func EncodeSnapshot(dst []byte, snap *scenario.Snapshot) []byte {
	dst = append(dst, snapshotFormat)
	dst = appendInt(dst, snap.Cursor)
	dst = appendSlice(dst, snap.Iterations, appendIteration)
	return appendPointer(dst, snap.Controller, appendController)
}

// DecodeSnapshot inverts EncodeSnapshot.
func DecodeSnapshot(payload []byte) (*scenario.Snapshot, error) {
	d := decoder{buf: payload, names: map[string]string{}}
	if f := d.byte(); d.err == nil && f != snapshotFormat {
		return nil, fmt.Errorf("store: unknown snapshot format %d", f)
	}
	snap := &scenario.Snapshot{Cursor: d.int()}
	snap.Iterations = decodeSlice(&d, minIteration, decodeIteration)
	snap.Controller = decodePointer(&d, decodeController)
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after snapshot", len(d.buf))
	}
	return snap, nil
}

func appendIteration(dst []byte, it *scenario.IterationReport) []byte {
	dst = appendInt(dst, it.Index)
	dst = appendInt(dst, it.Capacity)
	dst = appendFloats(dst, it.Observed)
	dst = appendBool(dst, it.Switched)
	dst = appendBool(dst, it.Reverted)
	dst = appendInt(dst, it.SubmittedJobs)
	dst = appendInt(dst, it.CompletedJobs)
	dst = appendInt(dst, it.KilledJobs)
	dst = appendInt(dst, it.DeadlineJobs)
	dst = appendInt(dst, it.DeadlineMisses)
	dst = appendInt(dst, it.Preemptions)
	dst = appendFloat(dst, it.UsefulContainerSeconds)
	return appendFloat(dst, it.WastedContainerSeconds)
}

func decodeIteration(d *decoder, it *scenario.IterationReport) {
	it.Index = d.int()
	it.Capacity = d.int()
	it.Observed = d.floats()
	it.Switched = d.bool()
	it.Reverted = d.bool()
	it.SubmittedJobs = d.int()
	it.CompletedJobs = d.int()
	it.KilledJobs = d.int()
	it.DeadlineJobs = d.int()
	it.DeadlineMisses = d.int()
	it.Preemptions = d.int()
	it.UsefulContainerSeconds = d.float()
	it.WastedContainerSeconds = d.float()
}

func appendController(dst []byte, c *core.ControllerState) []byte {
	dst = appendConfig(dst, &c.Current)
	dst = appendFloats(dst, c.CurrentX)
	dst = appendConfig(dst, &c.PrevConfig)
	dst = appendFloats(dst, c.PrevObserved)
	dst = appendBool(dst, c.HasPrev)
	dst = appendSlice(dst, c.Targets, func(dst []byte, t *pald.Target) []byte {
		return appendBool(appendFloat(dst, t.R), t.Constrained)
	})
	dst = appendFloats(dst, c.Scales)
	dst = appendSlice(dst, c.History, appendHistory)
	return appendPointer(dst, c.Optimizer, func(dst []byte, o *pald.State) []byte {
		dst = binary.AppendUvarint(dst, o.Draws)
		dst = appendSlice(dst, o.Xs, appendFloatsAt)
		return appendSlice(dst, o.Fs, appendFloatsAt)
	})
}

func decodeController(d *decoder, c *core.ControllerState) {
	d.config(&c.Current)
	c.CurrentX = d.floats()
	d.config(&c.PrevConfig)
	c.PrevObserved = d.floats()
	c.HasPrev = d.bool()
	c.Targets = decodeSlice(d, minTarget, func(d *decoder, t *pald.Target) {
		t.R, t.Constrained = d.float(), d.bool()
	})
	c.Scales = d.floats()
	c.History = decodeSlice(d, minHistory, decodeHistory)
	c.Optimizer = decodePointer(d, func(d *decoder, o *pald.State) {
		o.Draws = d.uvarint()
		o.Xs = decodeSlice(d, minFloats, decodeFloatsAt)
		o.Fs = decodeSlice(d, minFloats, decodeFloatsAt)
	})
}

func appendHistory(dst []byte, it *core.Iteration) []byte {
	dst = appendInt(dst, it.Index)
	dst = appendConfig(dst, &it.Config)
	dst = appendFloats(dst, it.Observed)
	dst = appendFloats(dst, it.Predicted)
	dst = appendBool(dst, it.Reverted)
	dst = appendBool(dst, it.Switched)
	return appendPointer(dst, it.Search, func(dst []byte, s *core.SearchStats) []byte {
		dst = appendInt(dst, s.Candidates)
		dst = appendInt(dst, s.FullyScored)
		dst = appendInt(dst, s.WarmStarted)
		dst = appendInt(dst, s.Pruned)
		dst = appendInt(dst, s.SimsRun)
		return appendInt(dst, s.SimsReused)
	})
}

func decodeHistory(d *decoder, it *core.Iteration) {
	it.Index = d.int()
	d.config(&it.Config)
	it.Observed = d.floats()
	it.Predicted = d.floats()
	it.Reverted = d.bool()
	it.Switched = d.bool()
	it.Search = decodePointer(d, func(d *decoder, s *core.SearchStats) {
		s.Candidates = d.int()
		s.FullyScored = d.int()
		s.WarmStarted = d.int()
		s.Pruned = d.int()
		s.SimsRun = d.int()
		s.SimsReused = d.int()
	})
}

func appendConfig(dst []byte, c *cluster.Config) []byte {
	dst = appendInt(dst, c.TotalContainers)
	if c.Tenants == nil {
		return append(dst, tagNil)
	}
	dst = append(dst, tagPresent)
	dst = binary.AppendUvarint(dst, uint64(len(c.Tenants)))
	names := make([]string, 0, len(c.Tenants))
	for name := range c.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tc := c.Tenants[name]
		dst = appendString(dst, name)
		dst = appendFloat(dst, tc.Weight)
		dst = appendInt(dst, tc.MinShare)
		dst = appendInt(dst, tc.MaxShare)
		dst = binary.AppendUvarint(dst, uint64(tc.SharePreemptTimeout))
		dst = binary.AppendUvarint(dst, uint64(tc.MinSharePreemptTimeout))
	}
	return dst
}

func (d *decoder) config(c *cluster.Config) {
	c.TotalContainers = d.int()
	if !d.present() {
		return
	}
	n := d.count(minTenant)
	c.Tenants = make(map[string]cluster.TenantConfig, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		name := d.string()
		if i > 0 && name <= prev && d.err == nil {
			d.err = fmt.Errorf("store: snapshot tenant %q out of order after %q", name, prev)
		}
		prev = name
		c.Tenants[name] = cluster.TenantConfig{
			Weight:                 d.float(),
			MinShare:               d.int(),
			MaxShare:               d.int(),
			SharePreemptTimeout:    time.Duration(d.uvarint()),
			MinSharePreemptTimeout: time.Duration(d.uvarint()),
		}
	}
}

func appendInt(dst []byte, v int) []byte { return binary.AppendUvarint(dst, uint64(v)) }

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendFloats(dst []byte, v []float64) []byte {
	return appendSlice(dst, v, func(dst []byte, f *float64) []byte { return appendFloat(dst, *f) })
}

func appendFloatsAt(dst []byte, v *[]float64) []byte { return appendFloats(dst, *v) }

func decodeFloatsAt(d *decoder, v *[]float64) { *v = d.floats() }

func appendSlice[T any](dst []byte, s []T, elem func([]byte, *T) []byte) []byte {
	if s == nil {
		return append(dst, tagNil)
	}
	dst = append(dst, tagPresent)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for i := range s {
		dst = elem(dst, &s[i])
	}
	return dst
}

func decodeSlice[T any](d *decoder, minSize int, elem func(*decoder, *T)) []T {
	if !d.present() {
		return nil
	}
	out := make([]T, d.count(minSize))
	for i := 0; i < len(out) && d.err == nil; i++ {
		elem(d, &out[i])
	}
	return out
}

func appendPointer[T any](dst []byte, p *T, elem func([]byte, *T) []byte) []byte {
	if p == nil {
		return append(dst, tagNil)
	}
	return elem(append(dst, tagPresent), p)
}

func decodePointer[T any](d *decoder, elem func(*decoder, *T)) *T {
	if !d.present() {
		return nil
	}
	p := new(T)
	elem(d, p)
	return p
}

// decoder is a cursor over a record payload; the first malformed read
// latches err and every later read returns zero. string resolves through
// names, so equal names share one allocation.
type decoder struct {
	buf   []byte
	err   error
	names map[string]string
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("store: truncated uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) int() int { return int(d.uvarint()) }

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.err = fmt.Errorf("store: truncated byte")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// bool reads a byte that must be 0 or 1; present reads the same byte as a
// slice or pointer tag.
func (d *decoder) bool() bool {
	b := d.byte()
	if b > 1 && d.err == nil {
		d.err = fmt.Errorf("store: byte %d where 0 or 1 was expected", b)
	}
	return b == 1 && d.err == nil
}

func (d *decoder) present() bool { return d.bool() }

// count reads an element count and holds it to the bytes left: n elements
// of at least minSize bytes each must fit, or the count is corruption and
// nothing is allocated for it.
func (d *decoder) count(minSize int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)/minSize) {
		d.err = fmt.Errorf("store: count %d exceeds the %d bytes left", n, len(d.buf))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = fmt.Errorf("store: truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) floats() []float64 {
	if !d.present() {
		return nil
	}
	out := make([]float64, d.count(minFloat))
	for i := range out {
		// count already checked that len(out) floats are there.
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[8*i:]))
	}
	d.buf = d.buf[8*len(out):]
	return out
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("store: truncated string")
		return ""
	}
	raw := d.buf[:n]
	d.buf = d.buf[n:]
	s, ok := d.names[string(raw)]
	if !ok {
		s = string(raw)
		d.names[s] = s
	}
	return s
}
