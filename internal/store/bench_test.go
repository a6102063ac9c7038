package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tempo/internal/benchrec"
	"tempo/internal/cluster"
	"tempo/internal/scenario"
)

// TestMain persists the durability benchmarks' headline metrics when
// TEMPO_BENCH_OUT names a file — the BENCH_7.json record CI regenerates
// and gates with cmd/benchdiff (see EXPERIMENTS.md, "Reading
// BENCH_7.json").
func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("TEMPO_BENCH_OUT"); path != "" && code == 0 {
		if err := benchrec.Write(path); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
			code = 1
		}
	}
	os.Exit(code)
}

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

func benchSchedules(b *testing.B) *benchFixture {
	b.Helper()
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
		b.Fatal(benchOnce.f.err)
	}
	return &benchOnce.f
}

// BenchmarkWALAppend measures group-committed append throughput: one
// committed tick's schedule encoded and framed per op, fsync batched at
// the default byte threshold.
func BenchmarkWALAppend(b *testing.B) {
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
	nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	mbPerSec := 0.0
	if b.Elapsed() > 0 {
		mbPerSec = float64(bytesAppended) / b.Elapsed().Seconds() / (1 << 20)
	}
	b.ReportMetric(mbPerSec, "MB/s")
	// bytes_per_tick is computed over one full cycle of the fixture's
	// schedules, not over b.N, so it is a deterministic property of the
	// codec + seeded run (benchdiff gates it exactly): codec drift shows
	// up as a byte-count change, whatever b.N the run used.
	var cycleBytes int64
	for _, p := range f.payloads {
		cycleBytes += int64(len(p)) + walHeaderSize
	}
	benchrec.Record("WALAppend", map[string]float64{
		"append_ns":      nsPerOp,
		"mb_per_sec":     mbPerSec,
		"bytes_per_tick": float64(cycleBytes) / float64(len(f.payloads)),
	})
}

// BenchmarkColdRecovery measures the full crash-recovery path: open the
// data directory, scan + decode the WAL, load the snapshot, and resume
// the runtime to the recovered tick — what tempod pays per cluster at
// startup. The small row is BENCH_7's ColdRecovery entry (store-small,
// snapshot at the midpoint, the rest re-driven); the stress row is the
// shape that dominates a real restart: 100 tenants, 173 templates, 32
// ticks, a snapshot every 8 as the service takes them.
func BenchmarkColdRecovery(b *testing.B) {
	b.Run("small", func(b *testing.B) {
		spec := benchSchedules(b).spec
		ns := coldRecovery(b, spec, func(cursor int) bool { return cursor == spec.Iterations/2 })
		benchrec.Record("ColdRecovery", map[string]float64{
			"recovery_ns": ns,
			// "ticks" is an exact metric for benchdiff: the recovered tick
			// count is a deterministic output of the seeded fixture run.
			"ticks": float64(spec.Iterations),
		})
	})
	b.Run("stress", func(b *testing.B) {
		coldRecovery(b, stressSpec(b, 32), func(cursor int) bool { return cursor > 0 && cursor%8 == 0 })
	})
}

// coldRecovery drives spec to its end through a store, snapshotting
// whenever snapshotAt(ticks done) says so, then times b.N cold recoveries
// of that directory and returns the mean in nanoseconds.
func coldRecovery(b *testing.B, spec *scenario.Spec, snapshotAt func(cursor int) bool) float64 {
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
	b.StopTimer()
	return float64(b.Elapsed().Nanoseconds()) / float64(b.N)
}

// BenchmarkSnapshotCodec times EncodeSnapshot and DecodeSnapshot on the
// two snapshot shapes a data directory holds: a small cluster late in a
// long run (2 tenants, 128 ticks of history) and a stress cluster (100
// tenants, 173 templates, 32 ticks — about a megabyte as JSON).
func BenchmarkSnapshotCodec(b *testing.B) {
	small := storeSpec(b)
	small.Iterations = 128
	for _, shape := range []struct {
		name string
		spec *scenario.Spec
	}{{"small", small}, {"stress", stressSpec(b, 32)}} {
		snap := runtimeSnapshot(b, shape.spec, shape.spec.Iterations)
		enc := EncodeSnapshot(nil, snap)
		b.Run("encode/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				benchSink = EncodeSnapshot(nil, snap)
			}
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
