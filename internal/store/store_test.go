package store

import (
	"bytes"
	"encoding/binary"
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
)

// storeSpecJSON is a small two-tenant replay scenario with the controller
// on — big enough that snapshots, WAL replay, and controller re-drive all
// carry real state, small enough to run many crash trials. The scale is
// deliberately high enough that this seed synthesizes jobs: at scale 0.4
// seed 1234 draws an empty workload, and empty schedules would let the
// codec's per-event paths pass these tests vacuously.
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

// TestCodecRoundTrip locks EncodeTick/DecodeTick as exact inverses on
// real emulator output.
func TestCodecRoundTrip(t *testing.T) {
	spec := storeSpec(t)
	rt, err := scenario.Build(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// shared decodes the same records the way Schedules does, through one
	// decoder whose event scratch and name table outlive each record.
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
		tick, decoded, err := DecodeTick(payload)
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if tick != i {
			t.Fatalf("decoded tick %d, want %d", tick, i)
		}
		if !decoded.Equal(sched) {
			t.Fatalf("tick %d: decoded schedule differs", i)
		}
		if !reflect.DeepEqual(decoded.Events(), sched.Events()) {
			t.Fatalf("tick %d: decoded event stream differs", i)
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
		if _, _, err := DecodeTick(payload[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := DecodeTick(append(payload, 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestDecodeTickBoundsAllocations feeds DecodeTick short, well-formed
// records whose one oversized field would size an allocation: the event
// count (the event slice) and an event's Seq (ReplaySchedule's record
// slices). A CRC cannot catch these — the WAL frames whatever bytes it was
// given — and the failure is not a recoverable panic but the runtime's
// out-of-memory abort, so each must come back as an error.
func TestDecodeTickBoundsAllocations(t *testing.T) {
	for name, payload := range map[string][]byte{
		"event count beyond the payload": craftedHeader(1 << 40),
		"job seq beyond the event count": craftedSubmit(craftedHeader(1), 1<<40),
		"seq equal to the event count":   craftedSubmit(craftedHeader(1), 1),
	} {
		if _, sched, err := DecodeTick(payload); err == nil {
			t.Errorf("%s: accepted, replayed %d jobs", name, len(sched.Jobs))
		}
	}
	if _, sched, err := DecodeTick(craftedSubmit(craftedHeader(1), 0)); err != nil || len(sched.Jobs) != 1 {
		t.Errorf("in-range seq rejected or misreplayed: err %v", err)
	}
}

// craftedHeader hand-encodes a tick record's header claiming nEvents
// events; craftedSubmit appends one job-submit event with the given Seq.
func craftedHeader(nEvents uint64) []byte {
	p := binary.AppendUvarint(nil, 0) // tick
	p = binary.AppendUvarint(p, 4)    // capacity
	p = binary.AppendUvarint(p, uint64(time.Hour))
	return binary.AppendUvarint(p, nEvents)
}

func craftedSubmit(p []byte, seq uint64) []byte {
	p = binary.AppendUvarint(p, 0) // time
	p = append(p, byte(cluster.EventJobSubmit))
	p = binary.AppendUvarint(p, seq)
	p = appendString(p, "a")
	p = appendString(p, "a-0")
	return binary.AppendUvarint(p, 0) // deadline
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
	if got := cs2.Ticks(); got != crashAfter {
		t.Fatalf("recovered %d ticks, want %d", got, crashAfter)
	}
	if !reflect.DeepEqual(spec, cs2.Spec()) {
		t.Fatal("recovered spec differs")
	}
	schedules, err := cs2.Schedules()
	if err != nil {
		t.Fatal(err)
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
	schedules, err := cs2.Schedules()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := cs2.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := scenario.Resume(cs2.Spec(), opts, snap, schedules)
	if err != nil && snap != nil {
		// Snapshot reaches past the surviving WAL: fall back to WAL-only.
		resumed, err = scenario.Resume(cs2.Spec(), opts, nil, schedules)
	}
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

// TestStoreDelete removes on-disk state for good.
func TestStoreDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := storeSpec(t)
	if _, err := s.Create("gone", spec); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("gone"); !errors.Is(err, ErrNotFound) {
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
	stale := filepath.Join(cs.dir, "snapshot.json")
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
			raw, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(stale, raw, 0o644); err != nil {
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
		t.Fatalf("LoadSnapshot beside a snapshot.json = %v, %v; want nil, nil", snap, err)
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
			t.Fatalf("snapshot.json gone before any snapshot was written: %v", err)
		}
	}
	got, err := resumed.Report().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("report recovered from an old-format directory differs from the uninterrupted run")
	}
	next, err := resumed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs2.WriteSnapshot(next); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot.json after a snapshot write: stat err %v, want not-exist", err)
	}
	if snap, err := cs2.LoadSnapshot(); err != nil || snap == nil || snap.Cursor != spec.Iterations {
		t.Fatalf("snapshot.bin after the upgrade = %+v, %v", snap, err)
	}
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
