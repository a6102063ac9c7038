package store

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tempo/internal/cluster"
	"tempo/internal/scenario"
)

// benchFixture is the shared benchmark substrate: the store-small run's
// observed schedules and their encoded tick payloads.
type benchFixture struct {
	spec      *scenario.Spec
	schedules []*cluster.Schedule
	payloads  [][]byte
	err       error
}

var benchOnce struct {
	sync.Once
	f benchFixture
}

func benchSchedules(tb testing.TB) *benchFixture {
	tb.Helper()
	benchOnce.Do(func() {
		f := &benchOnce.f
		spec, err := scenario.Load(strings.NewReader(storeSpecJSON))
		if err != nil {
			f.err = err
			return
		}
		f.spec = spec
		rt, err := scenario.Build(spec, scenario.Options{Parallelism: 1})
		if err != nil {
			f.err = err
			return
		}
		for i := 0; i < spec.Iterations; i++ {
			if _, err := rt.Step(); err != nil {
				f.err = err
				return
			}
			sched := rt.ObservedSchedule(i)
			f.schedules = append(f.schedules, sched)
			f.payloads = append(f.payloads, EncodeTick(nil, i, sched))
		}
	})
	if benchOnce.f.err != nil {
		tb.Fatal(benchOnce.f.err)
	}
	return &benchOnce.f
}

// walBytesPerTick is the mean framed WAL record size of the store-small
// fixture's ticks. It is a pure function of the codec and the seeded
// schedules, so any change is an encoding change, not noise; re-commit it
// only when the change is intended.
const walBytesPerTick = 482

// checkWALBytesPerTick fails tb unless one full cycle of the fixture's
// encoded ticks, framed as the WAL frames them, averages walBytesPerTick.
func checkWALBytesPerTick(tb testing.TB) {
	tb.Helper()
	f := benchSchedules(tb)
	var total int
	for _, p := range f.payloads {
		total += len(p) + walHeaderSize
	}
	if got := float64(total) / float64(len(f.payloads)); got != walBytesPerTick {
		tb.Fatalf("WAL bytes per tick = %v, committed value %d", got, walBytesPerTick)
	}
}

// BenchmarkWALAppend measures group-committed append throughput: one
// committed tick's schedule encoded and framed per op, fsync batched at
// the default byte threshold. It fails if the record size drifted.
func BenchmarkWALAppend(b *testing.B) {
	checkWALBytesPerTick(b)
	f := benchSchedules(b)
	path := filepath.Join(b.TempDir(), "wal.log")
	w, _, err := OpenWAL(path, WALOptions{SyncBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	var enc []byte
	var bytesAppended int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick := i % len(f.schedules)
		enc = EncodeTick(enc[:0], tick, f.schedules[tick])
		// The WAL itself does not care about tick ordering; ClusterStore
		// enforces that above it. Appending a cycle keeps the file growing
		// with realistic record sizes.
		if err := w.Append(enc); err != nil {
			b.Fatal(err)
		}
		bytesAppended += int64(len(enc)) + walHeaderSize
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(bytesAppended)/b.Elapsed().Seconds()/(1<<20), "MB/s")
	}
}

// BenchmarkColdRecovery measures the full crash-recovery path: open the
// data directory, scan + decode the WAL, load the snapshot, and resume
// the runtime to the recovered tick — what tempod pays per cluster at
// startup. The small row is the store-small fixture (snapshot at the
// midpoint, the rest re-driven); the stress row is the shape that
// dominates a real restart: 100 tenants, 173 templates, 32 ticks, a
// snapshot every 8 as the service takes them.
func BenchmarkColdRecovery(b *testing.B) {
	b.Run("small", func(b *testing.B) {
		spec := benchSchedules(b).spec
		coldRecovery(b, spec, func(cursor int) bool { return cursor == spec.Iterations/2 })
	})
	b.Run("stress", func(b *testing.B) {
		coldRecovery(b, stressSpec(b, 32), func(cursor int) bool { return cursor > 0 && cursor%8 == 0 })
	})
}

// coldRecovery drives spec to its end through a store, snapshotting
// whenever snapshotAt(ticks done) says so, then times b.N cold recoveries
// of that directory, each of which must recover every tick.
func coldRecovery(b *testing.B, spec *scenario.Spec, snapshotAt func(cursor int) bool) {
	dir := b.TempDir()
	{
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		cs, err := s.Create("bench", spec)
		if err != nil {
			b.Fatal(err)
		}
		rt, err := scenario.Build(spec, scenario.Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i <= spec.Iterations; i++ {
			if snapshotAt(i) {
				snap, err := rt.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				if err := cs.WriteSnapshot(snap); err != nil {
					b.Fatal(err)
				}
			}
			if i == spec.Iterations {
				break
			}
			if _, err := rt.Step(); err != nil {
				b.Fatal(err)
			}
			if err := cs.AppendTick(i, rt.ObservedSchedule(i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		cs, err := s.Get("bench")
		if err != nil {
			b.Fatal(err)
		}
		schedules, err := cs.Schedules()
		if err != nil {
			b.Fatal(err)
		}
		snap, err := cs.LoadSnapshot()
		if err != nil {
			b.Fatal(err)
		}
		rt, err := scenario.Resume(cs.Spec(), scenario.Options{Parallelism: 1}, snap, schedules)
		if err != nil {
			b.Fatal(err)
		}
		if rt.StepsDone() != spec.Iterations {
			b.Fatalf("recovered to tick %d", rt.StepsDone())
		}
		s.Close()
	}
}

// snapshotShape is one of the two snapshot shapes a data directory
// holds, at its final tick, with the exact size of its encoding.
type snapshotShape struct {
	name  string
	snap  *scenario.Snapshot
	bytes int
}

// snapshotShapes builds the two shapes: a small cluster late in a long
// run (2 tenants, 128 ticks) and a stress cluster (100 tenants, 173
// templates, 32 ticks). Their encoded sizes are pure functions of the
// codec and the seeded runs, like walBytesPerTick; re-commit them only
// when an encoding change is intended.
func snapshotShapes(tb testing.TB) []snapshotShape {
	small := storeSpec(tb)
	small.Iterations = 128
	return []snapshotShape{
		{"small", runtimeSnapshot(tb, small, small.Iterations), 31483},
		{"stress", runtimeSnapshot(tb, stressSpec(tb, 32), 32), 577058},
	}
}

// checkSnapshotBytes fails tb unless shape encodes to its committed size.
func checkSnapshotBytes(tb testing.TB, shape snapshotShape, enc []byte) {
	tb.Helper()
	if len(enc) != shape.bytes {
		tb.Fatalf("%s snapshot encodes to %d bytes, committed value %d", shape.name, len(enc), shape.bytes)
	}
}

// BenchmarkSnapshotCodec times EncodeSnapshot and DecodeSnapshot on
// snapshotShapes and reports each shape's encoded size. It fails if a
// size drifted.
func BenchmarkSnapshotCodec(b *testing.B) {
	for _, shape := range snapshotShapes(b) {
		snap := shape.snap
		enc := EncodeSnapshot(nil, snap)
		checkSnapshotBytes(b, shape, enc)
		b.Run("encode/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				benchSink = EncodeSnapshot(nil, snap)
			}
			b.ReportMetric(float64(len(enc)), "snapshot-bytes")
		})
		b.Run("decode/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeSnapshot(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSink keeps the compiler from discarding an encode's result.
var benchSink []byte
