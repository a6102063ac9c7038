package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"tempo/internal/cluster"
	"tempo/internal/scenario"
	"tempo/internal/workload"
)

// storeSpecJSON is a small two-tenant replay scenario with the controller
// on — big enough that snapshots, WAL replay, and controller re-drive all
// carry real state, small enough to run many crash trials. The scale is
// deliberately high enough that this seed synthesizes jobs: at scale 0.4
// seed 1234 draws an empty workload, and empty schedules would let the
// codec's per-record paths pass these tests vacuously.
const storeSpecJSON = `{
  "name": "store-small",
  "seed": 1234,
  "capacity": 8,
  "interval_minutes": 5,
  "iterations": 6,
  "replay": true,
  "tenants": [
    {"name": "deadline", "profile": "deadline-driven", "scale": 2.0,
     "deadline": {"factor_lo": 1.2, "factor_hi": 1.8}},
    {"name": "besteffort", "profile": "best-effort", "scale": 2.0}
  ],
  "slos": [
    {"queue": "deadline", "metric": "deadline_violations", "slack": 0.25, "target": 0},
    {"queue": "besteffort", "metric": "avg_response_time"}
  ],
  "initial": {},
  "controller": {"candidates": 3, "max_step": 0.2}
}`

func storeSpec(t testing.TB) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Load(strings.NewReader(storeSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func runReference(t testing.TB, spec *scenario.Spec) []byte {
	t.Helper()
	rep, err := scenario.Run(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// decodeTick inverts EncodeTick with a fresh decoder, as recovery does
// for a log's first record.
func decodeTick(payload []byte) (tick int, sched *cluster.Schedule, err error) {
	return new(tickDecoder).decode(payload)
}

// TestCodecRoundTrip locks EncodeTick/decodeTick as exact inverses on
// real emulator output.
func TestCodecRoundTrip(t *testing.T) {
	spec := storeSpec(t)
	rt, err := scenario.Build(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// shared decodes the same records the way Schedules does, through one
	// decoder whose name interning outlives each record.
	var shared tickDecoder
	var fromShared []*cluster.Schedule
	for i := 0; i < spec.Iterations; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
		sched := rt.ObservedSchedule(i)
		payload := EncodeTick(nil, i, sched)
		if _, again, err := shared.decode(payload); err != nil {
			t.Fatalf("tick %d through a shared decoder: %v", i, err)
		} else {
			fromShared = append(fromShared, again)
		}
		tick, decoded, err := decodeTick(payload)
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if tick != i {
			t.Fatalf("decoded tick %d, want %d", tick, i)
		}
		if !decoded.Equal(sched) {
			t.Fatalf("tick %d: decoded schedule differs", i)
		}
	}
	for i, again := range fromShared {
		if !reflect.DeepEqual(again, rt.ObservedSchedule(i)) {
			t.Fatalf("tick %d: a later record's decode changed an earlier schedule", i)
		}
	}
	// Corruption fails loudly, never panics.
	payload := EncodeTick(nil, 0, rt.ObservedSchedule(0))
	for _, cut := range []int{0, 1, 3, len(payload) / 2, len(payload) - 1} {
		if _, _, err := decodeTick(payload[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := decodeTick(append(payload, 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestDecodeTickBoundsAllocations feeds decodeTick short, well-formed
// records whose one oversized field would size an allocation (the name,
// job and task counts) or index past one (a name ref, or a task's job ref
// that names no job record, which has no position in Jobs to take). A CRC
// cannot catch these — the WAL frames whatever bytes it was given — and
// an oversized count is not a recoverable panic but the runtime's
// out-of-memory abort, so each must come back as an error.
func TestDecodeTickBoundsAllocations(t *testing.T) {
	for name, payload := range map[string][]byte{
		"name count beyond the payload": craftedHeader(1 << 40),
		"job count beyond the payload":  craftedCount(craftedNames(), 1<<40),
		"task count beyond the payload": craftedCount(craftedCount(craftedNames(), 0), 1<<40),
		"name ref beyond the names":     craftedCount(craftedJob(craftedNames(), 1), 0),
		"task of no job record":         craftedTask(craftedCount(craftedNames(), 0), 0),
	} {
		if _, sched, err := decodeTick(payload); err == nil {
			t.Errorf("%s: accepted, decoded %d jobs and %d tasks", name, len(sched.Jobs), len(sched.Tasks))
		}
	}
	if _, _, err := decodeTick(craftedTask(craftedCount(craftedNames(), 0), 0)); err == nil || !strings.Contains(err.Error(), `task 0 names job "a"`) {
		t.Errorf("a task of no job record: error %v does not name the task and its job", err)
	}
	if _, sched, err := decodeTick(craftedTask(craftedJob(craftedNames(), 0), 0)); err != nil || len(sched.Tasks) != 1 || sched.JobID(&sched.Tasks[0]) != "a" {
		t.Errorf("a task of its job's record rejected or misdecoded: err %v", err)
	}
	if _, sched, err := decodeTick(craftedCount(craftedJob(craftedNames(), 0), 0)); err != nil || len(sched.Jobs) != 1 || sched.Jobs[0].ID != "a" {
		t.Errorf("in-range name ref rejected or misdecoded: err %v", err)
	}
}

// craftedHeader hand-encodes a tick record's header claiming nNames
// names; craftedNames is a header whose names are the one name "a";
// craftedCount appends a present slice's count, craftedJob the jobs
// slice of one job whose id is the given name ref, and craftedTask the
// tasks slice of one task whose job is the given name ref.
func craftedHeader(nNames uint64) []byte {
	p := []byte{tickFormat}
	p = binary.AppendUvarint(p, 0) // tick
	p = binary.AppendUvarint(p, 4) // capacity
	p = binary.AppendUvarint(p, uint64(time.Hour))
	return craftedCount(p, nNames)
}

func craftedNames() []byte { return appendString(craftedHeader(1), "a") }

func craftedCount(p []byte, n uint64) []byte { return binary.AppendUvarint(append(p, tagPresent), n) }

func craftedJob(p []byte, id uint64) []byte {
	p = craftedCount(p, 1)
	p = binary.AppendUvarint(p, 0) // tenant
	p = binary.AppendUvarint(p, id)
	p = binary.AppendVarint(p, 0) // submit
	p = binary.AppendVarint(p, 0) // finish
	return append(p, jobCompleted)
}

func craftedTask(p []byte, job uint64) []byte {
	p = craftedCount(p, 1)
	p = binary.AppendUvarint(p, 0) // tenant
	p = binary.AppendUvarint(p, job)
	p = append(p, byte(workload.Map), byte(cluster.TaskFinished))
	p = binary.AppendUvarint(p, 1) // attempt
	p = binary.AppendVarint(p, 0)  // start
	return binary.AppendVarint(p, 0)
}

// eventStreamRecord is EncodeTick(nil, 0, fuzzSeedSchedule()) as written
// by the codec before this one, which logged a schedule's event stream
// and had no format byte: the record opens with tick 0's uvarint, 0x00.
const eventStreamRecord = "" +
	"000480c0e285e3680c80b09dc2df010000016103612d3080e0a596bb1180b09d" +
	"c2df010100016103612d30000180e0ba84bf030001016203622d30008090d8c6" +
	"9e050103016203622d3000018090d8c69e050203016203622d3000010380c0f5" +
	"88fe060101016103612d30000280c0f588fe060200016103612d3000010180f0" +
	"92cbdd080301016203622d30028080eb91fc0d0102016103612d3001018080eb" +
	"91fc0d0201016103612d3000020080b088d4db0f0202016103612d3001010080" +
	"b088d4db0f0300016103612d3001"

// TestEventStreamWALRefused: a WAL written by the event-stream codec is
// refused with an error naming the format, by decodeTick and by recovery
// through a data dir, never misread as a schedule.
func TestEventStreamWALRefused(t *testing.T) {
	payload, err := hex.DecodeString(eventStreamRecord)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeTick(payload); err == nil || !strings.Contains(err.Error(), "format 0") {
		t.Fatalf("decodeTick on an event-stream record: %v, want a format error", err)
	}

	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("old", storeSpec(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	w, _, err := OpenWAL(filepath.Join(dir, "clusters", "old", "wal.log"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cs, err := s.Get("old")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Schedules(); err == nil || !strings.Contains(err.Error(), "wal record 0: store: unknown tick record format 0") {
		t.Fatalf("Schedules on an event-stream WAL: %v, want a format error", err)
	}
}

// TestStoreRecoverByteIdentical is the store-level acceptance test: drive
// a live run appending each tick, snapshot midway, reopen the store cold,
// resume from snapshot + WAL, and require the finished report to be
// byte-identical to an uninterrupted run.
func TestStoreRecoverByteIdentical(t *testing.T) {
	spec := storeSpec(t)
	want := runReference(t, spec)
	opts := scenario.Options{Parallelism: 1}

	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.Create("c/1", spec)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := scenario.Build(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	const crashAfter = 4
	for i := 0; i < crashAfter; i++ {
		if i == 2 {
			snap, err := rt.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.WriteSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
		if err := cs.AppendTick(i, rt.ObservedSchedule(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold restart.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	cs2, err := s2.Get("c/1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, cs2.Spec()) {
		t.Fatal("recovered spec differs")
	}
	schedules, err := cs2.Schedules()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(schedules); got != crashAfter {
		t.Fatalf("recovered %d ticks, want %d", got, crashAfter)
	}
	snap, err := cs2.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Cursor != 2 {
		t.Fatalf("recovered snapshot %+v, want cursor 2", snap)
	}
	resumed, err := scenario.Resume(cs2.Spec(), opts, snap, schedules)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered report differs from uninterrupted run")
	}
}

// TestStoreCrashOffsets sweeps randomized injected-crash offsets over the
// WAL byte stream: whatever prefix survives, recovery (snapshot when
// usable, WAL-only fallback otherwise, re-ticking the lost tail live)
// must finish with byte-identical output.
func TestStoreCrashOffsets(t *testing.T) {
	spec := storeSpec(t)
	want := runReference(t, spec)
	opts := scenario.Options{Parallelism: 1}

	// Measure the full WAL size once to aim the fault offsets.
	probe := t.TempDir()
	{
		s, err := Open(probe, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cs, err := s.Create("c", spec)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := scenario.Build(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < spec.Iterations; i++ {
			if _, err := rt.Step(); err != nil {
				t.Fatal(err)
			}
			if err := cs.AppendTick(i, rt.ObservedSchedule(i)); err != nil {
				t.Fatal(err)
			}
		}
		fullSize := cs.WALSize()
		s.Close()
		if fullSize == 0 {
			t.Fatal("empty reference WAL")
		}

		rng := rand.New(rand.NewSource(99))
		trials := 8
		if testing.Short() {
			trials = 3
		}
		for trial := 0; trial < trials; trial++ {
			limit := int64(rng.Intn(int(fullSize)))
			snapshotAt := rng.Intn(spec.Iterations)
			t.Run("", func(t *testing.T) {
				runCrashTrial(t, spec, opts, want, limit, snapshotAt)
			})
		}
	}
}

func runCrashTrial(t *testing.T, spec *scenario.Spec, opts scenario.Options, want []byte, limit int64, snapshotAt int) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.Create("c", spec)
	if err != nil {
		t.Fatal(err)
	}
	cs.InjectFault(limit)
	rt, err := scenario.Build(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.Iterations; i++ {
		if i == snapshotAt {
			snap, err := rt.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.WriteSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
		if err := cs.AppendTick(i, rt.ObservedSchedule(i)); err != nil {
			if !errors.Is(err, ErrFaultInjected) {
				t.Fatal(err)
			}
			break // crashed
		}
	}
	// The crash: no Close, no flush — just abandon and reopen.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	cs2, err := s2.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	resumed, _, err := recoverCluster(cs2, opts)
	if err != nil {
		t.Fatalf("limit=%d snapshotAt=%d: %v", limit, snapshotAt, err)
	}
	// Re-tick the lost tail live, appending to the recovered WAL as the
	// service would.
	for i := resumed.StepsDone(); i < spec.Iterations; i++ {
		if _, err := resumed.Step(); err != nil {
			t.Fatal(err)
		}
		if err := cs2.AppendTick(i, resumed.ObservedSchedule(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep := resumed.Report()
	got, err := rep.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("limit=%d snapshotAt=%d: recovered report differs", limit, snapshotAt)
	}
}

// recoverCluster resumes a cluster from its durable state the way the
// service does: from the snapshot when Resume accepts it, by full WAL
// re-drive when it does not. fellBack reports the latter.
func recoverCluster(cs *ClusterStore, opts scenario.Options) (rt *scenario.Runtime, fellBack bool, err error) {
	schedules, err := cs.Schedules()
	if err != nil {
		return nil, false, err
	}
	snap, err := cs.LoadSnapshot()
	if err != nil {
		return nil, false, err
	}
	rt, err = scenario.Resume(cs.Spec(), opts, snap, schedules)
	if err != nil && snap != nil {
		rt, err = scenario.Resume(cs.Spec(), opts, nil, schedules)
		fellBack = true
	}
	return rt, fellBack, err
}

// TestRecoverFromIllFittingSnapshot: a snapshot.bin that decodes but whose
// controller state does not fit the spec — scales for one of its two
// templates — is refused by Resume, and the WAL re-drive recovers the
// byte-identical report.
func TestRecoverFromIllFittingSnapshot(t *testing.T) {
	spec := storeSpec(t)
	want := runReference(t, spec)
	opts := scenario.Options{Parallelism: 1}
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.Create("c", spec)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := scenario.Build(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	const crashAfter = 4
	for i := 0; i < crashAfter; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
		if err := cs.AppendTick(i, rt.ObservedSchedule(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := rt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Controller.Scales = snap.Controller.Scales[:1]
	if err := cs.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	cs2, err := s2.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	resumed, fellBack, err := recoverCluster(cs2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !fellBack {
		t.Fatal("a snapshot with one scale for two templates was accepted")
	}
	rep, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("report recovered beside an ill-fitting snapshot differs from the uninterrupted run")
	}
}

// TestStoreDelete removes on-disk state for good.
func TestStoreDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := storeSpec(t)
	cs, err := s.Create("gone", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteCluster(cs); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteCluster(cs); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if ids := s2.IDs(); len(ids) != 0 {
		t.Fatalf("deleted cluster resurrected: %v", ids)
	}
}

// TestStoreCreateValidates rejects duplicates and empty ids.
func TestStoreCreateValidates(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := storeSpec(t)
	if _, err := s.Create("", spec); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := s.Create("dup", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("dup", spec); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
}

// TestEscapeID locks the directory-name escaping: injective, reversible,
// and free of path separators and dot-names.
func TestEscapeID(t *testing.T) {
	ids := []string{
		"simple", "with/slash", "with\\backslash", "..", ".", "%", "%%2f",
		"dots.and.spaces here", "unicode-ü-名", "", "a%2fb",
	}
	seen := map[string]string{}
	for _, id := range ids {
		esc := escapeID(id)
		if strings.ContainsAny(esc, "/\\.") {
			t.Errorf("escapeID(%q) = %q contains a separator or dot", id, esc)
		}
		if prev, dup := seen[esc]; dup {
			t.Errorf("escapeID collision: %q and %q both map to %q", prev, id, esc)
		}
		seen[esc] = id
		back, err := unescapeID(esc)
		if err != nil {
			t.Errorf("unescapeID(%q): %v", esc, err)
		} else if back != id {
			t.Errorf("round trip %q -> %q -> %q", id, esc, back)
		}
	}
	if _, err := unescapeID("%zz"); err == nil {
		t.Error("bad escape accepted")
	}
	if _, err := unescapeID("%2"); err == nil {
		t.Error("truncated escape accepted")
	}
}

// TestUnescapeIDCanonical: only names escapeID writes decode, so two
// directories can never map to one cluster id (Open would keep only one).
func TestUnescapeIDCanonical(t *testing.T) {
	for _, tc := range []struct {
		name string
		id   string // "" means rejected
	}{
		{"%4g", ""},      // not hex
		{"%+4", ""},      // a sign is not hex
		{"%-1", ""},      // nor is a minus
		{"%4A", ""},      // escapeID writes lowercase hex
		{"%41", ""},      // 'A' is written bare
		{"a%2fb", "a/b"}, // the one valid round trip
	} {
		id, err := unescapeID(tc.name)
		if tc.id == "" && err == nil {
			t.Errorf("unescapeID(%q) = %q, want an error", tc.name, id)
		}
		if tc.id != "" && (err != nil || id != tc.id) {
			t.Errorf("unescapeID(%q) = %q, %v, want %q", tc.name, id, err, tc.id)
		}
	}
}

// TestAppendTickOrdering rejects out-of-order and duplicate ticks.
func TestAppendTickOrdering(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := storeSpec(t)
	cs, err := s.Create("c", spec)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := scenario.Build(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Step(); err != nil {
		t.Fatal(err)
	}
	sched := rt.ObservedSchedule(0)
	if err := cs.AppendTick(1, sched); err == nil {
		t.Error("tick gap accepted")
	}
	if err := cs.AppendTick(0, sched); err != nil {
		t.Fatal(err)
	}
	if err := cs.AppendTick(0, sched); err == nil {
		t.Error("duplicate tick accepted")
	}
}

// TestSnapshotAtomicReplace overwrites a snapshot and reads back the
// newest one; a scribbled or torn snapshot file is discarded, not fatal.
func TestSnapshotAtomicReplace(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := storeSpec(t)
	cs, err := s.Create("c", spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := cs.LoadSnapshot(); err != nil || snap != nil {
		t.Fatalf("fresh cluster snapshot = %v, %v", snap, err)
	}
	rt, err := scenario.Build(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		snap, err := rt.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.WriteSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := cs.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Cursor != 1 {
		t.Fatalf("snapshot cursor = %+v, want 1", snap)
	}
	// Scribble the file: recovery treats it as absent.
	path := filepath.Join(cs.dir, "snapshot.bin")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err := cs.LoadSnapshot(); err != nil || snap != nil {
		t.Fatalf("scribbled snapshot = %v, %v; want nil, nil", snap, err)
	}
	// So is every strict prefix of a good one — never a panic, never a
	// partial snapshot — and so is a good one with a byte appended.
	for cut := 0; cut <= len(good); cut++ {
		torn := good[:cut]
		if cut == len(good) {
			torn = append(append([]byte(nil), good...), 0)
		}
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if snap, err := cs.LoadSnapshot(); err != nil || snap != nil {
			t.Fatalf("snapshot cut at %d of %d bytes = %v, %v; want nil, nil", cut, len(good), snap, err)
		}
	}
}

// TestUpgradeFromJSONSnapshot: a cluster directory left by a tempod that
// wrote snapshot.json recovers by WAL re-drive — the old file is not read
// — to the byte-identical report, and the next snapshot write removes it.
func TestUpgradeFromJSONSnapshot(t *testing.T) {
	stale := upgradeFrom(t, "snapshot.json", func(snap *scenario.Snapshot) []byte {
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	})
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot.json after a snapshot write: stat err %v, want not-exist", err)
	}
}

// TestUpgradeFromFormat1Snapshot: a snapshot.bin in an older format is
// treated as absent — one WAL re-drive recovers the byte-identical
// report — and the next snapshot write replaces it with a framed
// snapshot in the current format. Format 1 held the controller's
// per-iteration history and had no frame, so it fails the frame check
// and the body behind the 1 is immaterial. Format 2 is framed and
// carried every tick's search statistics between the iterations and the
// controller; its format byte refuses it.
func TestUpgradeFromFormat1Snapshot(t *testing.T) {
	format1 := func(snap *scenario.Snapshot) []byte {
		raw := EncodeSnapshot(nil, snap)
		raw[0] = 1
		return raw
	}
	format2 := func(snap *scenario.Snapshot) []byte {
		rec := append(make([]byte, walHeaderSize), 2)
		rec = appendInt(rec, snap.Cursor)
		rec = appendSlice(rec, snap.Iterations, appendIteration)
		rec = append(rec, tagPresent)
		rec = binary.AppendUvarint(rec, uint64(snap.Cursor))
		for i := 0; i < snap.Cursor; i++ {
			// candidates fullyScored warmStarted simsRun simsReused
			rec = append(rec, tagPresent, 24, 1, 0, 24, 0)
		}
		rec = appendPointer(rec, snap.Controller, appendController)
		if err := sealFrame(rec); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	for _, old := range []func(*scenario.Snapshot) []byte{format1, format2} {
		path := upgradeFrom(t, "snapshot.bin", old)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if raw[walHeaderSize] != 3 {
			t.Fatalf("snapshot.bin after the upgrade has format %d, want 3", raw[walHeaderSize])
		}
	}
}

// TestFlippedBitSnapshot: a current snapshot.bin with one bit flipped in
// its payload — a float bit, which the codec alone cannot tell from a
// different value — fails the frame's checksum and is treated as absent,
// so one WAL re-drive recovers the byte-identical report instead of a
// restore onto a different trajectory.
func TestFlippedBitSnapshot(t *testing.T) {
	upgradeFrom(t, "snapshot.bin", func(snap *scenario.Snapshot) []byte {
		rec := EncodeSnapshot(make([]byte, walHeaderSize), snap)
		if err := sealFrame(rec); err != nil {
			t.Fatal(err)
		}
		rec[walHeaderSize+(len(rec)-walHeaderSize)/2] ^= 0x10
		return rec
	})
}

// upgradeFrom leaves a store-small cluster four ticks into its run with
// a snapshot file an older tempod wrote, or a damaged one: name, holding
// old(the snapshot after tick 1). Reopened, LoadSnapshot must return (nil, nil) and a WAL
// re-drive must finish on the uninterrupted run's report, with the old
// file untouched until the first snapshot write. That write must load
// back at the final cursor. upgradeFrom returns the old file's path.
func upgradeFrom(t *testing.T, name string, old func(*scenario.Snapshot) []byte) string {
	t.Helper()
	spec := storeSpec(t)
	want := runReference(t, spec)
	opts := scenario.Options{Parallelism: 1}
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.Create("old", spec)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := scenario.Build(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	const crashAfter = 4
	stale := filepath.Join(cs.dir, name)
	for i := 0; i < crashAfter; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
		if err := cs.AppendTick(i, rt.ObservedSchedule(i)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			snap, err := rt.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(stale, old(snap), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	cs2, err := s2.Get("old")
	if err != nil {
		t.Fatal(err)
	}
	schedules, err := cs2.Schedules()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := cs2.LoadSnapshot()
	if err != nil || snap != nil {
		t.Fatalf("LoadSnapshot beside an old %s = %v, %v; want nil, nil", name, snap, err)
	}
	resumed, err := scenario.Resume(cs2.Spec(), opts, nil, schedules)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.StepsDone() != crashAfter {
		t.Fatalf("re-drove %d ticks, want %d", resumed.StepsDone(), crashAfter)
	}
	for i := crashAfter; i < spec.Iterations; i++ {
		if _, err := resumed.Step(); err != nil {
			t.Fatal(err)
		}
		if err := cs2.AppendTick(i, resumed.ObservedSchedule(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(stale); err != nil {
			t.Fatalf("%s gone before any snapshot was written: %v", name, err)
		}
	}
	got, err := resumed.Report().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report recovered beside an old %s differs from the uninterrupted run", name)
	}
	next, err := resumed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs2.WriteSnapshot(next); err != nil {
		t.Fatal(err)
	}
	if snap, err := cs2.LoadSnapshot(); err != nil || snap == nil || snap.Cursor != spec.Iterations {
		t.Fatalf("snapshot.bin after the upgrade = %+v, %v", snap, err)
	}
	return stale
}

// TestSchedulesReleasesLog: the recovered records alias one buffer the
// size of the log, and Schedules hands them over instead of keeping them
// — afterwards nothing in the store reaches that buffer, a second call is
// an error, not an empty result, and the cluster still appends and
// re-recovers.
func TestSchedulesReleasesLog(t *testing.T) {
	spec := storeSpec(t)
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.Create("c", spec)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := scenario.Build(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 3
	for i := 0; i < ticks; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
		if err := cs.AppendTick(i, rt.ObservedSchedule(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	cs2, err := s2.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	// The first payload starts one frame header into the read buffer.
	released := make(chan struct{})
	buf := (*byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(cs2.recovered[0])), -walHeaderSize))
	runtime.SetFinalizer(buf, func(*byte) { close(released) })
	schedules, err := cs2.Schedules()
	if err != nil {
		t.Fatal(err)
	}
	if len(schedules) != ticks {
		t.Fatalf("decoded %d schedules, want %d", len(schedules), ticks)
	}
	timeout := time.After(10 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		select {
		case <-released:
			collected = true
		case <-timeout:
			t.Fatal("the WAL read buffer is still reachable after Schedules")
		case <-time.After(time.Millisecond):
		}
	}
	for i, sched := range schedules {
		if !sched.Equal(rt.ObservedSchedule(i)) {
			t.Fatalf("schedule %d differs once the buffer is gone", i)
		}
	}
	if _, err := cs2.Schedules(); err == nil {
		t.Fatal("a second Schedules call without Reopen decoded nothing and said nothing")
	}
	if _, err := rt.Step(); err != nil {
		t.Fatal(err)
	}
	if err := cs2.AppendTick(ticks, rt.ObservedSchedule(ticks)); err != nil {
		t.Fatal(err)
	}
	if err := cs2.Reopen(); err != nil {
		t.Fatal(err)
	}
	again, err := cs2.Schedules()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != ticks+1 || !again[ticks].Equal(rt.ObservedSchedule(ticks)) {
		t.Fatalf("re-recovered %d schedules after an append, want %d ending in the appended one", len(again), ticks+1)
	}
}
