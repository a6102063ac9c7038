//tempolint:deterministic

package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
// index and the observed schedule's record view (Capacity, Horizon, Jobs
// and Tasks, each record's tenant and job resolved to names). The
// encoding is a pure function of that view — same observation, same
// bytes — and tickDecoder inverts it exactly, which is what makes a
// recovered trajectory byte-identical to the live one.
//
//	record := format tick capacity horizon names jobs tasks
//	names  := slice(string)     tenants and job IDs, first use first
//	jobs   := slice(job)
//	job    := tenant id submit finish flags deadline?
//	tasks  := slice(task)
//	task   := tenant job kind outcome attempt start duration
//
// format is the byte 1 and slice(T) is snapshot.bin's (below). tenant,
// id and job index names: a tenant is named at its first record, a job
// at its own record. The encoder builds names from the schedule's tenant
// indexes and job positions; the decoder turns each name back into a
// tenant index (numbered in first-use order across the log it reads, so
// a decoded tenant table lists the tenants its log has named so far) or
// a job position, that of the first job record the name is the id of. A task whose job names no job
// record has no position to take and is an error. submit and start are
// deltas from the previous job's submit and the previous task's start
// (the first from zero); finish and deadline are deltas from the job's
// own submit, and duration is End − Start. These five are zigzag
// varints, so records in any order round-trip. flags is a byte:
// Completed (1), Killed (2), and 4 when a deadline follows (a zero
// Deadline, meaning none, is not written). kind and outcome are a byte
// each; every other integer is a uvarint. The decoder holds every count
// to the bytes left and every name index to names, and treats trailing
// bytes as an error.
const (
	tickFormat = 1

	jobCompleted   = 1
	jobKilled      = 2
	jobHasDeadline = 4

	minName = 1
	minJob  = 5
	minTask = 7
)

// EncodeTick appends the record for (tick, sched) to dst and returns the
// extended slice.
func EncodeTick(dst []byte, tick int, sched *cluster.Schedule) []byte {
	dst = append(dst, tickFormat)
	dst = appendInt(dst, tick)
	dst = appendInt(dst, sched.Capacity)
	dst = binary.AppendUvarint(dst, uint64(sched.Horizon))

	// The first-use name table, from the records' numbers: a tenant is
	// named at its first record, a job at its own record. refs holds each
	// tenant's name position, then each job's.
	refs := make([]int, len(sched.TenantNames)+len(sched.Jobs))
	for i := range refs {
		refs[i] = -1
	}
	jobRefs := refs[len(sched.TenantNames):]
	var names []string
	if len(sched.Jobs) > 0 {
		names = make([]string, 0, len(refs))
	}
	tenant := func(i int32) {
		if refs[i] < 0 {
			refs[i] = len(names)
			names = append(names, sched.TenantNames[i])
		}
	}
	for i := range sched.Jobs {
		tenant(sched.Jobs[i].Tenant)
		jobRefs[i] = len(names)
		names = append(names, sched.Jobs[i].ID)
	}
	for i := range sched.Tasks {
		tenant(sched.Tasks[i].Tenant)
	}
	dst = appendSlice(dst, names, func(dst []byte, s *string) []byte { return appendString(dst, *s) })

	var submit time.Duration
	job := 0
	dst = appendSlice(dst, sched.Jobs, func(dst []byte, j *cluster.JobRecord) []byte {
		dst = appendInt(dst, refs[j.Tenant])
		dst = appendInt(dst, jobRefs[job])
		job++
		dst = binary.AppendVarint(dst, int64(j.Submit-submit))
		submit = j.Submit
		dst = binary.AppendVarint(dst, int64(j.Finish-submit))
		var flags byte
		if j.Completed {
			flags |= jobCompleted
		}
		if j.Killed {
			flags |= jobKilled
		}
		if j.Deadline == 0 {
			return append(dst, flags)
		}
		return binary.AppendVarint(append(dst, flags|jobHasDeadline), int64(j.Deadline-submit))
	})

	var start time.Duration
	return appendSlice(dst, sched.Tasks, func(dst []byte, t *cluster.TaskRecord) []byte {
		dst = appendInt(dst, refs[t.Tenant])
		dst = appendInt(dst, jobRefs[t.Job])
		dst = appendInt(append(dst, byte(t.Kind), byte(t.Outcome)), t.Attempt)
		dst = binary.AppendVarint(dst, int64(t.Start-start))
		start = t.Start
		return binary.AppendVarint(dst, int64(t.End-t.Start))
	})
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// tickDecoder carries what one WAL's records share across decode
// calls: the interned names, so each distinct tenant and job name is
// allocated once per log, not once per record, and one tenant table for
// the whole log.
type tickDecoder struct {
	names map[string]string
	// tenants numbers every tenant the log's records have named so far,
	// in first-use order, and tenantAt maps a name to its number. A
	// decoded schedule's table is a prefix of tenants, capped at its
	// length, so later appends never write into it.
	tenants  []string
	tenantAt map[string]int32
	// refs is decode's scratch: each name's tenant number, then its job
	// position.
	refs []int32
}

func (td *tickDecoder) decode(payload []byte) (tick int, sched *cluster.Schedule, err error) {
	if td.names == nil {
		td.names, td.tenantAt = map[string]string{}, map[string]int32{}
	}
	d := decoder{buf: payload, names: td.names}
	if f := d.byte(); d.err == nil && f != tickFormat {
		return 0, nil, fmt.Errorf("store: unknown tick record format %d, want %d", f, tickFormat)
	}
	tick = d.int()
	sched = &cluster.Schedule{Capacity: d.int(), Horizon: time.Duration(d.uvarint())}
	names := decodeSlice(&d, minName, func(d *decoder, s *string) { *s = d.string() })
	// A name ref becomes a number at its first use: a tenant's is the
	// log's number for that name, and a job's own record makes the ref
	// name that job's position.
	td.refs = slices.Grow(td.refs[:0], 2*len(names))[:2*len(names)]
	tenantOf, jobOf := td.refs[:len(names)], td.refs[len(names):]
	for i := range td.refs {
		td.refs[i] = -1
	}
	tenant := func(d *decoder) int32 {
		i := d.ref(len(names))
		if i < 0 {
			return 0
		}
		if tenantOf[i] < 0 {
			at, ok := td.tenantAt[names[i]]
			if !ok {
				at = int32(len(td.tenants))
				td.tenantAt[names[i]] = at
				td.tenants = append(td.tenants, names[i])
			}
			tenantOf[i] = at
		}
		return tenantOf[i]
	}

	var submit time.Duration
	var job int32
	sched.Jobs = decodeSlice(&d, minJob, func(d *decoder, j *cluster.JobRecord) {
		j.Tenant = tenant(d)
		if i := d.ref(len(names)); i >= 0 {
			j.ID = names[i]
			if jobOf[i] < 0 {
				jobOf[i] = job
			}
		}
		job++
		submit += time.Duration(d.varint())
		j.Submit = submit
		j.Finish = submit + time.Duration(d.varint())
		flags := d.byte()
		if flags&^(jobCompleted|jobKilled|jobHasDeadline) != 0 && d.err == nil {
			d.err = fmt.Errorf("store: unknown job flags %#x", flags)
		}
		j.Completed, j.Killed = flags&jobCompleted != 0, flags&jobKilled != 0
		if flags&jobHasDeadline != 0 {
			j.Deadline = submit + time.Duration(d.varint())
		}
	})

	var start time.Duration
	var task int
	sched.Tasks = decodeSlice(&d, minTask, func(d *decoder, t *cluster.TaskRecord) {
		t.Tenant = tenant(d)
		if i := d.ref(len(names)); i >= 0 {
			if t.Job = jobOf[i]; t.Job < 0 && d.err == nil {
				d.err = fmt.Errorf("store: task %d names job %q, which has no job record", task, names[i])
			}
		}
		task++
		t.Kind, t.Outcome = workload.TaskKind(d.byte()), cluster.TaskOutcome(d.byte())
		t.Attempt = d.int()
		start += time.Duration(d.varint())
		t.Start, t.End = start, start+time.Duration(d.varint())
	})

	if d.err != nil {
		return 0, nil, d.err
	}
	if len(d.buf) != 0 {
		return 0, nil, fmt.Errorf("store: %d trailing bytes after tick record", len(d.buf))
	}
	sched.TenantNames = td.tenants[:len(td.tenants):len(td.tenants)]
	return tick, sched, nil
}

// Snapshot codec. snapshot.bin holds one scenario.Snapshot, built from the
// tick codec's primitives plus one more: a float64 is its
// math.Float64bits, little-endian (exact by bit pattern — NaN payloads,
// -0 and subnormals survive). Every slice, map and pointer leads with a
// tag byte so nil and empty stay distinct ("observed": null versus [] in
// the canonical report). Like the tick codec it is a pure function of
// its input: Config.Tenants is written in ascending name order, so two
// runs of one spec and seed write the same bytes.
//
//	snapshot   := format cursor slice(iteration) pointer(controller)
//	iteration  := index capacity floats switched reverted submitted completed
//	              killed deadlineJobs deadlineMisses preemptions useful wasted
//	controller := config floats config floats hasPrev slice(target) floats
//	              steps pointer(optimizer)
//	config     := totalContainers slice(tenant)     names strictly ascending
//	tenant     := string weight minShare maxShare shareTimeout minShareTimeout
//	target     := r constrained
//	optimizer  := draws slice(floats) slice(floats)
//	floats     := slice(float)
//	slice(T)   := 0 | 1 count T*                    0 is nil, "1 0" is empty
//	pointer(T) := 0 | 1 T
//
// The controller's part is bounded in ticks: steps is a count, not a
// record per iteration, and the optimizer's sample cloud stops growing at
// its cap. What grows with ticks is the iteration slice, one entry per
// tick. Search statistics are not persisted: a runtime keeps only the
// last tick's, and a replay re-derives them.
//
// format is the byte 3; integers are uvarints (a negative int is its
// two's-complement uint64); bools are one byte, 0 or 1. The decoder
// checks every count against the bytes left before allocating for it,
// rejects any tag or bool byte other than 0 and 1, and treats trailing
// bytes as an error — so every strict prefix of a snapshot is rejected.
// Older formats are not decoded: format 1 held the controller's
// per-iteration history and format 2 every tick's search statistics.
// LoadSnapshot treats either as absent and recovery re-drives the WAL.
const (
	snapshotFormat = 3

	tagNil     = 0
	tagPresent = 1

	// The fewest bytes one element of each slice can occupy: the bound a
	// count is held to before its slice is allocated.
	minFloat     = 8
	minFloats    = 1
	minTarget    = 9
	minTenant    = 13
	minIteration = 27
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
	dst = appendInt(dst, c.Steps)
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
	c.Steps = d.int()
	c.Optimizer = decodePointer(d, func(d *decoder, o *pald.State) {
		o.Draws = d.uvarint()
		o.Xs = decodeSlice(d, minFloats, decodeFloatsAt)
		o.Fs = decodeSlice(d, minFloats, decodeFloatsAt)
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

// varint reads a zigzag varint, as binary.AppendVarint writes it.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// ref reads an index into a tick record's n names, or returns -1 and
// latches an error.
func (d *decoder) ref(n int) int {
	if i := d.uvarint(); d.err == nil && i < uint64(n) {
		return int(i)
	} else if d.err == nil {
		d.err = fmt.Errorf("store: name ref %d beyond the %d names", i, n)
	}
	return -1
}

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
