package qs

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/linalg"
	"tempo/internal/workload"
)

// allTemplates builds a representative template set over the schedule's
// tenants: every metric kind, cluster-wide and per-tenant, with randomized
// slacks, shares, and priorities.
func allTemplates(rng *rand.Rand, tenants []string) []Template {
	mapKind, redKind := workload.Map, workload.Reduce
	templates := []Template{
		{Metric: Utilization},
		{Metric: Utilization, TaskKind: &mapKind, EffectiveOnly: true},
		{Metric: Utilization, TaskKind: &redKind},
		{Metric: Throughput},
	}
	for _, tenant := range tenants {
		templates = append(templates,
			Template{Queue: tenant, Metric: AvgResponseTime, Priority: 0.5 + 2*rng.Float64()},
			Template{Queue: tenant, Metric: DeadlineViolations, Slack: rng.Float64()},
			Template{Queue: tenant, Metric: Utilization, EffectiveOnly: rng.Intn(2) == 0},
			Template{Queue: tenant, Metric: Throughput},
			Template{Queue: tenant, Metric: Fairness, DesiredShare: rng.Float64()},
		)
	}
	return templates
}

// sharedSets are compiled once for the whole package's tests and
// evaluated by every checkWindow call, on whichever schedule it checks:
// fuzzed and emulated schedules of every size, with some of the sets'
// tenants or none of them, in turn, and from the parallel subtests of
// TestPropertyIncrementalOracleEmulated at once (run under -race). One
// is above streamCutover and one below, so both of Compile's paths are
// reused.
var sharedSets = func() []*Compiled {
	templates := allTemplates(rand.New(rand.NewSource(7)), []string{"a", "c", "deadline", "analytics", "absent"})
	return []*Compiled{Compile(templates), Compile(templates[:streamCutover-1])}
}()

// checkWindow compares the incremental path against the oracle for one
// window, bit for bit: Values for the whole template set must equal
// EvalAll's values exactly, and so must every shared compiled set's Eval
// of the same schedule and window.
func checkWindow(t *testing.T, acc *Accumulator, templates []Template, s *cluster.Schedule, from, to time.Duration) {
	t.Helper()
	sameBits(t, templates, acc.Values(from, to), EvalAll(templates, s, from, to), from, to)
	for _, set := range sharedSets {
		sameBits(t, set.templates, set.Eval(s, from, to), EvalAll(set.templates, s, from, to), from, to)
	}
}

// sameBits fails unless got and want are bit-identical, NaN for NaN.
func sameBits(t *testing.T, templates []Template, got, want []float64, from, to time.Duration) {
	t.Helper()
	if len(got) != len(templates) {
		t.Fatalf("%d values for %d templates", len(got), len(templates))
	}
	for i := range templates {
		if g := got[i]; math.Float64bits(g) != math.Float64bits(want[i]) && !(math.IsNaN(g) && math.IsNaN(want[i])) {
			t.Fatalf("template %s window [%v, %v): got %v, want %v (must be bit-identical)",
				templates[i].Name(), from, to, g, want[i])
		}
	}
}

// coveringWindow returns a window end strictly past every record time, so
// [0, coveringWindow(s)) is a whole-schedule window — the shape for which
// the incremental path guarantees bit-identical results. For emulator
// output this equals Horizon+1ns, since no record outlives the horizon;
// the synthetic fuzz schedules can place finishes beyond it.
func coveringWindow(s *cluster.Schedule) time.Duration {
	max := s.Horizon
	for i := range s.Jobs {
		if f := s.Jobs[i].Finish; f > max {
			max = f
		}
		if sub := s.Jobs[i].Submit; sub > max {
			max = sub
		}
	}
	for i := range s.Tasks {
		if e := s.Tasks[i].End; e > max {
			max = e
		}
	}
	return max + time.Nanosecond
}

// randomWindows yields query windows biased toward the edges the half-open
// convention cares about: exact submit/finish instants, 1ns offsets around
// them, empty and inverted windows, and the full horizon.
func randomWindows(rng *rand.Rand, s *cluster.Schedule) [][2]time.Duration {
	windows := [][2]time.Duration{
		{0, s.Horizon + time.Nanosecond}, // the control loop's query
		{0, s.Horizon},
		{0, 0},                         // empty
		{s.Horizon, 0},                 // inverted
		{s.Horizon / 3, s.Horizon / 3}, // empty mid-run
		{-time.Hour, 10 * s.Horizon},   // superset of everything
	}
	var edges []time.Duration
	for i := range s.Jobs {
		edges = append(edges, s.Jobs[i].Submit, s.Jobs[i].Finish)
	}
	for i := range s.Tasks {
		edges = append(edges, s.Tasks[i].Start, s.Tasks[i].End)
	}
	pick := func() time.Duration {
		if len(edges) > 0 && rng.Intn(2) == 0 {
			e := edges[rng.Intn(len(edges))]
			return e + time.Duration(rng.Intn(3)-1) // e-1ns, e, e+1ns
		}
		return time.Duration(rng.Int63n(int64(s.Horizon + time.Minute)))
	}
	for k := 0; k < 24; k++ {
		windows = append(windows, [2]time.Duration{pick(), pick()})
	}
	return windows
}

// TestPropertyIncrementalOracle is the equivalence centerpiece: for
// randomized synthetic record sets, every incremental QS value
// bit-equals the full-recompute oracle, on windows covering the whole
// schedule and across random [From, To) windows alike.
func TestPropertyIncrementalOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		s := fuzzSchedule(rng.Int63(), 1+rng.Intn(64), rng.Intn(40))
		templates := allTemplates(rng, []string{"a", "b", "c"})
		acc := Accumulate(templates, s)
		checkWindow(t, acc, templates, s, 0, coveringWindow(s))
		checkWindow(t, acc, templates, s, 0, s.Horizon+time.Nanosecond)
		for _, w := range randomWindows(rng, s) {
			checkWindow(t, acc, templates, s, w[0], w[1])
		}
	}
}

// TestPropertyIncrementalOracleEmulated runs the same equivalence check on
// schedules produced by the real emulator: generated multi-tenant traces
// under randomly decoded RM configurations, with and without noise.
func TestPropertyIncrementalOracleEmulated(t *testing.T) {
	tenants := []string{"deadline", "besteffort", "analytics"}
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed*7919 + 3))
			sched := emulatedSchedule(t, rng, tenants)
			templates := allTemplates(rng, tenants)
			acc := Accumulate(templates, sched)
			checkWindow(t, acc, templates, sched, 0, sched.Horizon+time.Nanosecond)
			for _, w := range randomWindows(rng, sched) {
				checkWindow(t, acc, templates, sched, w[0], w[1])
			}
		})
	}
}

// emulatedSchedule runs a generated hour of three tenants — tenants[0]
// deadline-driven, tenants[1] best-effort, tenants[2] Facebook-like —
// through the real emulator under a randomly decoded RM configuration,
// with noise half the time. No record outlives the horizon, so
// [0, Horizon+1ns) covers it.
func emulatedSchedule(t *testing.T, rng *rand.Rand, tenants []string) *cluster.Schedule {
	t.Helper()
	profiles := []workload.TenantProfile{
		workload.DeadlineDriven(tenants[0], 0.5+rng.Float64()),
		workload.BestEffort(tenants[1], 0.5+rng.Float64()),
		workload.Facebook(tenants[2], 0.3+0.5*rng.Float64()),
	}
	trace, err := workload.Generate(profiles, workload.GenerateOptions{
		Horizon: time.Hour, Seed: rng.Int63(), Name: "prop",
	})
	if err != nil {
		t.Fatal(err)
	}
	capacity := 16 + rng.Intn(32)
	space := cluster.DefaultSpace(capacity, tenants)
	x := linalg.NewVector(space.Dim())
	for i := range x {
		x[i] = rng.Float64()
	}
	opts := cluster.Options{Horizon: time.Hour}
	if rng.Intn(2) == 0 {
		opts.Noise = cluster.DefaultNoise(rng.Int63())
	}
	sched, err := cluster.Run(trace, space.Decode(x), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestAccumulatorQueryOrder checks that an answer does not depend on
// which windows earlier queries asked: one shared accumulator, asked a
// window list forward and then backward on a second accumulator, must
// bit-equal a fresh accumulator asked each window alone.
func TestAccumulatorQueryOrder(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := fuzzSchedule(seed, 1+rng.Intn(48), rng.Intn(30))
		templates := allTemplates(rng, []string{"a", "b", "c"})
		windows := append([][2]time.Duration{{0, coveringWindow(s)}}, randomWindows(rng, s)...)
		fresh := make([][]float64, len(windows))
		for i, w := range windows {
			fresh[i] = Accumulate(templates, s).Values(w[0], w[1])
		}
		for _, backward := range []bool{false, true} {
			acc := Accumulate(templates, s)
			for k := range windows {
				i := k
				if backward {
					i = len(windows) - 1 - k
				}
				got := acc.Values(windows[i][0], windows[i][1])
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(fresh[i][j]) {
						t.Fatalf("seed %d backward=%v window %v template %s: shared %v, fresh %v",
							seed, backward, windows[i], templates[j].Name(), got[j], fresh[i][j])
					}
				}
			}
		}
	}
}

// TestAccumulatorConcurrentQueries drives one shared accumulator from many
// goroutines asking sub-windows and whole windows at once, so `go test
// -race` guards that Value and Values keep no shared mutable state and
// are safe for concurrent use.
func TestAccumulatorConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := fuzzSchedule(99, 32, 30)
	templates := allTemplates(rng, []string{"a", "b", "c"})
	acc := Accumulate(templates, s)
	windows := randomWindows(rng, s)
	wide := coveringWindow(s)
	want := EvalAll(templates, s, 0, wide)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, w := range windows {
				acc.Values(w[0], w[1])
			}
			got := acc.Values(0, wide)
			for i := range want {
				if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Errorf("concurrent full-window value %d: got %v, want %v", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAccumulateLeavesScheduleUntouched locks the borrowing contract from
// the accumulator's side: it aliases the schedule's records, so building
// it and querying whole and sub-windows (every query scans the records)
// must not change one byte of them, nor what a repeated
// whole-window query returns.
func TestAccumulateLeavesScheduleUntouched(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := fuzzSchedule(seed, 1+rng.Intn(48), rng.Intn(30))
		before := &cluster.Schedule{Capacity: s.Capacity, Horizon: s.Horizon, Tasks: slices.Clone(s.Tasks), Jobs: slices.Clone(s.Jobs)}
		templates := allTemplates(rng, []string{"a", "b", "c"})
		acc := Accumulate(templates, s)
		wide := coveringWindow(s)
		first := acc.Values(0, wide)
		for _, w := range randomWindows(rng, s) {
			acc.Values(w[0], w[1])
		}
		again := acc.Values(0, wide)
		for i := range first {
			if math.Float64bits(first[i]) != math.Float64bits(again[i]) {
				t.Fatalf("seed %d: whole-window value %d moved across queries: %v -> %v", seed, i, first[i], again[i])
			}
		}
		if !s.Equal(before) {
			t.Fatalf("seed %d: schedule records changed under Accumulate and queries", seed)
		}
	}
}

// TestCompiledOwnsItsTemplates: Compile copies the templates, TaskKind
// included, so a caller changing its slice afterwards changes neither
// Eval nor Matches' answer for the compiled set; Matches compares by
// value and follows the change.
func TestCompiledOwnsItsTemplates(t *testing.T) {
	s := fuzzSchedule(3, 8, 30)
	mapKind := workload.Map
	templates := allTemplates(rand.New(rand.NewSource(3)), []string{"a", "b"})
	templates[1].TaskKind = &mapKind
	set := Compile(templates)
	want := EvalAll(templates, s, 0, coveringWindow(s))
	twin := slices.Clone(templates)
	otherKind := workload.Map
	twin[1].TaskKind = &otherKind
	if !set.Matches(templates) || !set.Matches(twin) {
		t.Fatal("Matches refuses the set it was compiled from, or an equal copy with another TaskKind pointer")
	}
	for _, change := range []func(){
		func() { mapKind = workload.Reduce },
		func() { templates[0].Priority += 1 },
		func() { templates = templates[:len(templates)-1] },
	} {
		change()
		if set.Matches(templates) {
			t.Fatalf("Matches accepts a changed template set")
		}
		sameBits(t, set.templates, set.Eval(s, 0, coveringWindow(s)), want, 0, coveringWindow(s))
	}
}

// TestEvalStreamBytesFlatInRecords checks that the plan reads the records
// in place: an EvalStream on the plan's side of the cutover allocates the
// same bytes on a schedule and on one with ten times its records, under
// the same tenants and templates, on whole and clipped windows alike.
// Each size is measured over several single-call rounds and the fewest
// bytes compared exactly: an allocation of the runtime's own that lands
// in a round can only add bytes to it.
func TestEvalStreamBytesFlatInRecords(t *testing.T) {
	base := fuzzSchedule(1, 16, 40)
	templates := allTemplates(rand.New(rand.NewSource(1)), []string{"a", "b", "c"})
	if len(templates) < streamCutover {
		t.Fatalf("%d templates, want at least streamCutover = %d", len(templates), streamCutover)
	}
	scaled := func(copies int) *cluster.Schedule {
		s := &cluster.Schedule{Capacity: base.Capacity, Horizon: base.Horizon}
		for i := 0; i < copies; i++ {
			s.Jobs = append(s.Jobs, base.Jobs...)
			s.Tasks = append(s.Tasks, base.Tasks...)
		}
		return s
	}
	bytes := func(s *cluster.Schedule, from, to time.Duration) uint64 {
		EvalStream(templates, s, from, to)
		fewest := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for round := 0; round < 8; round++ {
			runtime.ReadMemStats(&before)
			EvalStream(templates, s, from, to)
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.TotalAlloc-before.TotalAlloc)
		}
		return fewest
	}
	one, ten := scaled(1), scaled(10)
	for _, w := range [][2]time.Duration{{0, base.Horizon + time.Nanosecond}, {base.Horizon / 2, base.Horizon}} {
		if b1, b10 := bytes(one, w[0], w[1]), bytes(ten, w[0], w[1]); b10 != b1 {
			t.Errorf("window [%v, %v): %d bytes over 10× the records, %d over 1×", w[0], w[1], b10, b1)
		}
	}
}

// TestIntervalEdgeConvention locks the half-open [From, To) convention
// documented in qs.go: a job finishing exactly at To is excluded by BOTH
// evaluation paths, a job finishing 1ns earlier is included, and the
// allocation integral clips tasks at To.
func TestIntervalEdgeConvention(t *testing.T) {
	to := 100 * time.Second
	s := &cluster.Schedule{Capacity: 10, Horizon: 2 * to}
	s.Jobs = []cluster.JobRecord{
		// Finishes exactly at To: excluded from Ji.
		{ID: "edge", Tenant: "a", Submit: 10 * time.Second, Finish: to, Completed: true, Deadline: 20 * time.Second},
		// Finishes 1ns before To: included.
		{ID: "in", Tenant: "a", Submit: 20 * time.Second, Finish: to - time.Nanosecond, Completed: true, Deadline: 30 * time.Second},
		// Submitted exactly at To: excluded.
		{ID: "late", Tenant: "a", Submit: to, Finish: to + time.Second, Completed: true},
	}
	s.Tasks = []cluster.TaskRecord{
		// Ends exactly at To: counts fully (half-open occupation [50s, To)).
		{JobID: "edge", Tenant: "a", Start: 50 * time.Second, End: to, Outcome: cluster.TaskFinished},
		// Starts exactly at To: contributes nothing to [0, To).
		{JobID: "late", Tenant: "a", Start: to, End: to + 10*time.Second, Outcome: cluster.TaskFinished},
	}
	templates := []Template{
		{Queue: "a", Metric: Throughput},
		{Queue: "a", Metric: AvgResponseTime},
		{Queue: "a", Metric: DeadlineViolations},
		{Queue: "a", Metric: Utilization},
	}
	acc := Accumulate(templates, s)
	for name, vals := range map[string][]float64{
		"oracle":      EvalAll(templates, s, 0, to),
		"incremental": acc.Values(0, to),
	} {
		// Only "in" is in the job set: one completed job, one violated
		// deadline (finish 99.99…s > deadline 30s), response ~80s.
		if got := -vals[0]; got != 1 {
			t.Errorf("%s: throughput counted %v jobs in [0, To), want 1 (job finishing at To must be excluded)", name, got)
		}
		wantAJR := (to - time.Nanosecond - 20*time.Second).Seconds()
		if math.Abs(vals[1]-wantAJR) > 1e-9 {
			t.Errorf("%s: AJR = %v, want %v", name, vals[1], wantAJR)
		}
		if vals[2] != 1 {
			t.Errorf("%s: deadline violations = %v, want 1 (only the included job counts)", name, vals[2])
		}
		// 50s of one container out of 100s × 10 containers; the task
		// starting at To adds nothing.
		if math.Abs(vals[3]+0.05) > 1e-12 {
			t.Errorf("%s: utilization = %v, want -0.05", name, vals[3])
		}
	}
	// Moving the window one nanosecond past To admits the edge job in both
	// paths.
	oracleWide := EvalAll(templates, s, 0, to+time.Nanosecond)
	incrWide := acc.Values(0, to+time.Nanosecond)
	if -oracleWide[0] != 2 || -incrWide[0] != 2 {
		t.Errorf("[0, To+1ns): oracle %v / incremental %v completed jobs, want 2", -oracleWide[0], -incrWide[0])
	}
}
