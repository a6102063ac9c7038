package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/core"
	"tempo/internal/pald"
	"tempo/internal/scenario"
)

// stressSpec is the stress-shaped fixture: the golden suite's stress-100
// tenant mix (100 tenants, capacity 160, controller on) with one SLO per
// background tenant plus a fairness SLO per web/etl tenant — 173 QS
// templates, the population whose snapshots are a megabyte of JSON.
func stressSpec(t testing.TB, iterations int) *scenario.Spec {
	t.Helper()
	spec, err := scenario.LoadFile(filepath.Join("..", "scenario", "testdata", "scenarios", "stress-100.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec.Iterations = iterations
	for _, g := range []struct {
		group string
		count int
		slo   scenario.SLOSpec
	}{
		{"web", 40, scenario.SLOSpec{Metric: "avg_response_time"}},
		{"etl", 30, scenario.SLOSpec{Metric: "deadline_violations", Slack: 0.25}},
		{"adhoc", 20, scenario.SLOSpec{Metric: "avg_response_time"}},
		{"spike", 8, scenario.SLOSpec{Metric: "avg_response_time"}},
		{"web", 40, scenario.SLOSpec{Metric: "fairness", DesiredShare: 0.01}},
		{"etl", 30, scenario.SLOSpec{Metric: "fairness", DesiredShare: 0.01}},
	} {
		for i := 0; i < g.count; i++ {
			slo := g.slo
			slo.Queue = fmt.Sprintf("%s-%03d", g.group, i)
			spec.SLOs = append(spec.SLOs, slo)
		}
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runtimeSnapshot steps a fresh runtime of spec through ticks intervals
// and returns its snapshot.
func runtimeSnapshot(t testing.TB, spec *scenario.Spec, ticks int) *scenario.Snapshot {
	t.Helper()
	rt, err := scenario.Build(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ticks; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := rt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// checkSnapshotRoundTrip holds one snapshot to the codec's contract:
// decode(encode(s)) re-encodes to the same bytes and, wherever
// encoding/json can spell the floats, re-marshals to the same JSON — nil
// versus empty slices, maps and pointers included.
func checkSnapshotRoundTrip(t *testing.T, snap *scenario.Snapshot) {
	t.Helper()
	enc := EncodeSnapshot(nil, snap)
	got, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if again := EncodeSnapshot(nil, got); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding differs: %d bytes, then %d", len(enc), len(again))
	}
	want, err := json.Marshal(snap)
	if err != nil {
		return // NaN or ±Inf: JSON cannot say it; the byte comparison above did
	}
	have, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Fatalf("decoded snapshot re-marshals differently:\n got %.300s\nwant %.300s", have, want)
	}
}

// TestSnapshotCodecRoundTrip is the round-trip property over generated
// snapshots and over real ones.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	t.Run("real", func(t *testing.T) {
		spec := storeSpec(t)
		for ticks := 0; ticks <= spec.Iterations; ticks++ {
			checkSnapshotRoundTrip(t, runtimeSnapshot(t, spec, ticks))
		}
		checkSnapshotRoundTrip(t, runtimeSnapshot(t, stressSpec(t, 3), 3))
	})
	t.Run("generated", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 300; i++ {
			checkSnapshotRoundTrip(t, randomSnapshot(rng))
		}
	})
	t.Run("edges", func(t *testing.T) {
		cases := map[string]*scenario.Snapshot{
			"zero":             {},
			"empty iterations": {Iterations: []scenario.IterationReport{}},
			"nil observed":     {Cursor: 1, Iterations: []scenario.IterationReport{{Observed: nil}}},
			"empty observed":   {Cursor: 1, Iterations: []scenario.IterationReport{{Observed: []float64{}}}},
			"negative ints":    {Cursor: -1, Iterations: []scenario.IterationReport{{Index: math.MinInt64, Capacity: -7}}},
			"negative steps":   {Controller: &core.ControllerState{Steps: -3}},
			"zero controller":  {Controller: &core.ControllerState{}},
			"empty controller": {Controller: &core.ControllerState{
				Current:      cluster.Config{Tenants: map[string]cluster.TenantConfig{}},
				CurrentX:     []float64{},
				PrevObserved: []float64{},
				Targets:      []pald.Target{},
				Scales:       []float64{},
				Optimizer:    &pald.State{Xs: [][]float64{}, Fs: [][]float64{{}, nil}},
			}},
			"odd floats": {Controller: &core.ControllerState{
				CurrentX: []float64{
					math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000123),
					math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64,
				},
				Targets: []pald.Target{{R: math.NaN(), Constrained: true}},
			}},
			"hundred tenants": {Controller: &core.ControllerState{Current: randomConfig(rand.New(rand.NewSource(5)), 100)}},
		}
		for name, snap := range cases {
			t.Run(name, func(t *testing.T) { checkSnapshotRoundTrip(t, snap) })
		}
		// The float cases above pass through json.Marshal's error path, so
		// check their bit patterns directly.
		odd := cases["odd floats"]
		got, err := DecodeSnapshot(EncodeSnapshot(nil, odd))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range odd.Controller.CurrentX {
			if have := got.Controller.CurrentX[i]; math.Float64bits(have) != math.Float64bits(want) {
				t.Errorf("float %d: bits %#x decoded as %#x", i, math.Float64bits(want), math.Float64bits(have))
			}
		}
	})
}

// randomSnapshot draws a snapshot whose every optional part is
// independently nil, empty or filled.
func randomSnapshot(rng *rand.Rand) *scenario.Snapshot {
	snap := &scenario.Snapshot{Cursor: rng.Intn(200)}
	if n := sliceLen(rng); n >= 0 {
		snap.Iterations = make([]scenario.IterationReport, n)
		for i := range snap.Iterations {
			snap.Iterations[i] = scenario.IterationReport{
				Index: i, Capacity: rng.Intn(1000), Observed: randomFloats(rng),
				Switched: rng.Intn(2) == 0, Reverted: rng.Intn(2) == 0,
				SubmittedJobs: rng.Intn(50), CompletedJobs: rng.Intn(50), KilledJobs: rng.Intn(5),
				DeadlineJobs: rng.Intn(50), DeadlineMisses: rng.Intn(50), Preemptions: rng.Intn(1 << 20),
				UsefulContainerSeconds: rng.ExpFloat64() * 1e4, WastedContainerSeconds: rng.Float64(),
			}
		}
	}
	if rng.Intn(4) == 0 {
		return snap
	}
	tenants := []int{0, 0, 2, 5, 100}[rng.Intn(5)]
	c := &core.ControllerState{
		Current:      randomConfig(rng, tenants),
		CurrentX:     randomFloats(rng),
		PrevConfig:   randomConfig(rng, tenants),
		PrevObserved: randomFloats(rng),
		HasPrev:      rng.Intn(2) == 0,
		Scales:       randomFloats(rng),
		Steps:        rng.Intn(200),
	}
	if n := sliceLen(rng); n >= 0 {
		c.Targets = make([]pald.Target, n)
		for i := range c.Targets {
			c.Targets[i] = pald.Target{R: rng.NormFloat64(), Constrained: rng.Intn(2) == 0}
		}
	}
	if rng.Intn(5) > 0 {
		o := &pald.State{Draws: rng.Uint64()}
		if n := sliceLen(rng); n >= 0 {
			o.Xs, o.Fs = make([][]float64, n), make([][]float64, n)
			for i := 0; i < n; i++ {
				o.Xs[i], o.Fs[i] = randomFloats(rng), randomFloats(rng)
			}
		}
		c.Optimizer = o
	}
	snap.Controller = c
	return snap
}

// sliceLen draws -1 (nil), 0 (empty) or a small length.
func sliceLen(rng *rand.Rand) int { return rng.Intn(8) - 1 }

func randomFloats(rng *rand.Rand) []float64 {
	n := sliceLen(rng)
	if n < 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(6) {
		case 0:
			out[i] = math.Copysign(0, -1)
		case 1:
			out[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(9))
		default:
			out[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
		}
	}
	return out
}

func randomConfig(rng *rand.Rand, tenants int) cluster.Config {
	c := cluster.Config{TotalContainers: rng.Intn(1 << 16)}
	if rng.Intn(8) == 0 {
		return c // nil tenant map
	}
	c.Tenants = make(map[string]cluster.TenantConfig, tenants)
	for i := 0; i < tenants; i++ {
		c.Tenants[fmt.Sprintf("t%03d-%x", i, rng.Intn(1<<12))] = cluster.TenantConfig{
			Weight: rng.Float64() * 8, MinShare: rng.Intn(40), MaxShare: rng.Intn(400),
			SharePreemptTimeout:    time.Duration(rng.Int63n(int64(time.Hour))),
			MinSharePreemptTimeout: time.Duration(rng.Int63n(int64(time.Hour))),
		}
	}
	return c
}

// snapshotFootprint is a lower bound on the heap a decoded snapshot
// holds: every slice's length times its element size, plus each tenant
// map entry.
func snapshotFootprint(snap *scenario.Snapshot) int {
	floats := func(v []float64) int { return 8 * len(v) }
	config := func(c *cluster.Config) int {
		return len(c.Tenants) * int(reflect.TypeOf(cluster.TenantConfig{}).Size()+16)
	}
	n := len(snap.Iterations) * int(reflect.TypeOf(scenario.IterationReport{}).Size())
	for i := range snap.Iterations {
		n += floats(snap.Iterations[i].Observed)
	}
	c := snap.Controller
	if c == nil {
		return n
	}
	n += config(&c.Current) + config(&c.PrevConfig) + floats(c.CurrentX) + floats(c.PrevObserved) + floats(c.Scales)
	n += len(c.Targets) * int(reflect.TypeOf(pald.Target{}).Size())
	if o := c.Optimizer; o != nil {
		n += 24 * (len(o.Xs) + len(o.Fs))
		for _, x := range o.Xs {
			n += floats(x)
		}
		for _, f := range o.Fs {
			n += floats(f)
		}
	}
	return n
}

// snapshotAllocFactor bounds snapshotFootprint(decoded) / len(payload):
// the widest ratio of in-memory to encoded size is a []float64 header (24
// bytes) over a nil row's one tag byte.
const snapshotAllocFactor = 24

// TestDecodeSnapshotBoundsAllocations is TestDecodeTickBoundsAllocations'
// twin: short, well-formed snapshots whose one oversized count would size
// an allocation must fail before allocating for it, and on that count.
func TestDecodeSnapshotBoundsAllocations(t *testing.T) {
	head := []byte{snapshotFormat, 0} // format, cursor
	huge := binary.AppendUvarint(nil, 1<<40)
	payload := func(parts ...[]byte) []byte {
		p := append([]byte(nil), head...)
		for _, part := range parts {
			p = append(p, part...)
		}
		return p
	}
	controller := func(fields ...[]byte) []byte {
		// nil iterations, controller present
		return payload(append([][]byte{{tagNil, tagPresent}}, fields...)...)
	}
	config := []byte{0, tagNil}
	for name, p := range map[string][]byte{
		"iterations": payload([]byte{tagPresent}, huge),
		// One iteration (index 0, capacity 0) whose observed count is 2^40,
		// padded so that the iteration count itself fits.
		"observed floats": payload([]byte{tagPresent, 1, 0, 0, tagPresent}, huge, make([]byte, minIteration)),
		"tenants":         controller([]byte{0, tagPresent}, huge),
		"current x":       controller(config, []byte{tagPresent}, huge),
		"targets":         controller(config, []byte{tagNil}, config, []byte{tagNil, 0, tagPresent}, huge),
		// prevObserved, hasPrev, targets, scales, steps 0, optimizer
		// present, draws 0, then the Xs count.
		"optimizer rows": controller(config, []byte{tagNil}, config,
			[]byte{tagNil, 0, tagNil, tagNil, 0, tagPresent, 0, tagPresent}, huge),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := DecodeSnapshot(p)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a count of 2^40 in a %d-byte payload was accepted: %+v", name, len(p), snap)
		} else if !strings.Contains(err.Error(), "count 1099511627776 exceeds") {
			t.Errorf("%s: refused for %q, not for the 2^40 count", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: rejecting a %d-byte payload allocated %d bytes", name, len(p), grew)
		}
	}
	// A count that is one too many for the bytes behind it is still refused.
	p := append(append([]byte(nil), head...), tagPresent, 1) // one iteration, 26 bytes follow
	p = append(p, make([]byte, minIteration-1)...)
	if _, err := DecodeSnapshot(p); err == nil {
		t.Error("an iteration count the payload cannot hold was accepted")
	}
	// And a real snapshot stays inside the fuzz target's bound.
	snap := runtimeSnapshot(t, storeSpec(t), 3)
	if enc := EncodeSnapshot(nil, snap); snapshotFootprint(snap) > snapshotAllocFactor*len(enc) {
		t.Errorf("a real snapshot's footprint %d exceeds %d x its %d encoded bytes", snapshotFootprint(snap), snapshotAllocFactor, len(enc))
	}
}

// TestSnapshotBytes pins the encoded size of BenchmarkSnapshotCodec's
// two shapes, so a snapshot that grows is an intended change.
func TestSnapshotBytes(t *testing.T) {
	for _, shape := range snapshotShapes(t) {
		checkSnapshotBytes(t, shape, EncodeSnapshot(nil, shape.snap))
	}
}

// TestSnapshotBytesDeterministic: two independent runs of one spec and
// seed write byte-identical snapshot.bin at every snapshot tick — the
// wall-clock decision time is not persisted.
func TestSnapshotBytesDeterministic(t *testing.T) {
	spec := storeSpec(t)
	var clock time.Duration
	opts := scenario.Options{Parallelism: 1, Clock: func() time.Time {
		// A clock that never repeats, so decision_ns differs between the
		// two runs the way wall time would.
		clock += time.Duration(1+rand.Intn(1000)) * time.Microsecond
		return time.Unix(0, 0).Add(clock)
	}}
	run := func() (files [][]byte, timed bool) {
		s, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
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
			timed = timed || rt.Search(i).DecisionNanos != 0
			snap, err := rt.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.WriteSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(cs.dir, "snapshot.bin"))
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, raw)
		}
		return files, timed
	}
	a, timed := run()
	b, _ := run()
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("snapshot.bin after tick %d differs between two runs of one spec and seed", i)
		}
	}
	if !timed {
		t.Fatal("the live run recorded no decision time; the test proves nothing")
	}
}

// TestResumeParityThroughCodecs is internal/scenario's
// TestResumeByteIdentical with the store's bytes in the middle: for every
// (snapshot tick k, crash tick m) pair of two golden scenarios, the
// snapshot goes through EncodeSnapshot/DecodeSnapshot and each schedule
// through EncodeTick/decodeTick, and the resumed run must finish on the
// uninterrupted run's report.
func TestResumeParityThroughCodecs(t *testing.T) {
	for _, name := range []string{"steady-two-tenant", "abc-mix"} {
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.LoadFile(filepath.Join("..", "scenario", "testdata", "scenarios", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			opts := scenario.Options{Parallelism: 2}
			want := runReference(t, spec)
			live, err := scenario.Build(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			// snaps[k] is the encoded snapshot at cursor k, records[i] tick i's
			// WAL payload; one live run serves every (k, m).
			var snaps, records [][]byte
			for i := 0; i <= spec.Iterations; i++ {
				snap, err := live.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, EncodeSnapshot(nil, snap))
				if i == spec.Iterations {
					break
				}
				if _, err := live.Step(); err != nil {
					t.Fatal(err)
				}
				records = append(records, EncodeTick(nil, i, live.ObservedSchedule(i)))
			}
			for m := 0; m <= spec.Iterations; m++ {
				var dec tickDecoder
				schedules := make([]*cluster.Schedule, m)
				for i := range schedules {
					if _, schedules[i], err = dec.decode(records[i]); err != nil {
						t.Fatal(err)
					}
				}
				for k := 0; k <= m; k++ {
					snap, err := DecodeSnapshot(snaps[k])
					if err != nil {
						t.Fatal(err)
					}
					resumed, err := scenario.Resume(spec, opts, snap, schedules)
					if err != nil {
						t.Fatalf("m=%d k=%d: %v", m, k, err)
					}
					rep, err := resumed.Run()
					if err != nil {
						t.Fatalf("m=%d k=%d: finishing resumed run: %v", m, k, err)
					}
					got, err := rep.MarshalCanonical()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("m=%d k=%d: resumed report differs from uninterrupted run", m, k)
					}
				}
			}
		})
	}
}
