package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/linalg"
	"tempo/internal/pald"
)

// walRoundTrip stands in for recovering an observed schedule from the
// WAL: a deep copy of its records. Resume must produce byte-identical
// reports from the copies, not just from shared in-memory pointers. (The
// store's tick codec, which this package cannot import, is covered by
// internal/store's TestResumeParityThroughCodecs.)
func walRoundTrip(t *testing.T, s *cluster.Schedule) *cluster.Schedule {
	t.Helper()
	if s == nil {
		t.Fatal("nil schedule")
	}
	return &cluster.Schedule{
		Capacity:    s.Capacity,
		Horizon:     s.Horizon,
		TenantNames: slices.Clone(s.TenantNames),
		Jobs:        slices.Clone(s.Jobs),
		Tasks:       slices.Clone(s.Tasks),
	}
}

// snapshotRoundTrip serializes a runtime snapshot through JSON. (The
// store persists snapshots in its own binary encoding, which this package
// cannot import; internal/store's TestResumeParityThroughCodecs runs this
// file's sweep through it.)
func snapshotRoundTrip(t *testing.T, rt *Runtime) *Snapshot {
	t.Helper()
	snap, err := rt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	return &decoded
}

// TestResumeByteIdentical is the in-process half of the crash-recovery
// acceptance test: for every (snapshot tick, crash tick) pair, a runtime
// resumed from the snapshot plus the WAL-replayed schedules finishes with
// a report byte-identical to an uninterrupted run's. Covers both a
// controller-driven scenario and an observe-only one.
func TestResumeByteIdentical(t *testing.T) {
	for _, name := range []string{"steady-two-tenant", "abc-mix"} {
		t.Run(name, func(t *testing.T) {
			spec, err := LoadFile(filepath.Join("testdata", "scenarios", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Parallelism: 2}
			ref, err := Run(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.MarshalCanonical()
			if err != nil {
				t.Fatal(err)
			}

			// crash after m committed ticks, snapshot taken at tick k <= m
			for m := 0; m <= spec.Iterations; m++ {
				for k := 0; k <= m; k++ {
					live, err := Build(spec, opts)
					if err != nil {
						t.Fatal(err)
					}
					var snap *Snapshot
					for i := 0; i < m; i++ {
						if i == k {
							snap = snapshotRoundTrip(t, live)
						}
						if _, err := live.Step(); err != nil {
							t.Fatal(err)
						}
					}
					if k == m {
						snap = snapshotRoundTrip(t, live)
					}
					schedules := make([]*cluster.Schedule, 0, m)
					for i := 0; i < m; i++ {
						schedules = append(schedules, walRoundTrip(t, live.ObservedSchedule(i)))
					}

					resumed, err := Resume(spec, opts, snap, schedules)
					if err != nil {
						t.Fatalf("m=%d k=%d: %v", m, k, err)
					}
					if resumed.StepsDone() != m {
						t.Fatalf("m=%d k=%d: resumed runtime at tick %d", m, k, resumed.StepsDone())
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

// TestResumeWithoutSnapshot recovers from the WAL alone (the fallback
// when the snapshot is lost or stale): full re-drive with every
// observation injected.
func TestResumeWithoutSnapshot(t *testing.T) {
	spec, err := LoadFile(filepath.Join("testdata", "scenarios", "steady-two-tenant.json"))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Parallelism: 2}
	live, err := Build(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := live.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	schedules := make([]*cluster.Schedule, 0, spec.Iterations)
	for i := 0; i < spec.Iterations; i++ {
		schedules = append(schedules, walRoundTrip(t, live.ObservedSchedule(i)))
	}
	resumed, err := Resume(spec, opts, nil, schedules)
	if err != nil {
		t.Fatal(err)
	}
	rep := resumed.Report()
	gotBytes, err := rep.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Error("snapshot-less recovery diverges from uninterrupted run")
	}
}

// TestResumeValidates rejects inconsistent durable state instead of
// resuming a wrong trajectory.
func TestResumeValidates(t *testing.T) {
	spec, err := LoadFile(filepath.Join("testdata", "scenarios", "steady-two-tenant.json"))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Parallelism: 1}
	live, err := Build(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := live.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	schedules := make([]*cluster.Schedule, 0, 3)
	for i := 0; i < 3; i++ {
		schedules = append(schedules, live.ObservedSchedule(i))
	}

	// Snapshot ahead of the WAL: the snapshot saw ticks the WAL lost.
	if _, err := Resume(spec, opts, snap, schedules[:2]); err == nil {
		t.Error("snapshot past the recovered schedules accepted")
	}
	// Corrupt cursor.
	bad := *snap
	bad.Cursor = 2
	if _, err := Resume(spec, opts, &bad, schedules); err == nil {
		t.Error("cursor/iterations mismatch accepted")
	}
	bad = *snap
	steps := *snap.Controller
	steps.Steps = 2
	bad.Controller = &steps
	if _, err := Resume(spec, opts, &bad, schedules); err == nil {
		t.Error("cursor/controller steps mismatch accepted")
	}
	// Controller toggle mismatch.
	off := *spec
	off.Controller.Disabled = true
	if _, err := Resume(&off, opts, snap, schedules); err == nil {
		t.Error("controller snapshot accepted by controller-off spec")
	}
	// More schedules than the iteration budget.
	over := make([]*cluster.Schedule, spec.Iterations+1)
	for i := range over {
		over[i] = schedules[0]
	}
	if _, err := Resume(spec, opts, nil, over); err == nil {
		t.Error("schedule overflow accepted")
	}
}

// TestObserveChangesNothing: Observe is the read-only half of a tick.
// Called twice with no Apply in between — at every tick, with and without
// the controller — it returns Equal schedules for the same tick and leaves
// the runtime's durable state (Snapshot bytes) and its observed-schedule
// record untouched. Each schedule follows the observation protocol (see
// checkObservation): replay (steady-two-tenant), windowed (abc-mix) and a
// mid-run capacity change (capacity-loss).
func TestObserveChangesNothing(t *testing.T) {
	for _, name := range []string{"steady-two-tenant", "abc-mix", "capacity-loss"} {
		t.Run(name, func(t *testing.T) {
			spec, err := LoadFile(filepath.Join("testdata", "scenarios", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			rt, err := Build(spec, Options{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			snapshotBytes := func() []byte {
				snap, err := rt.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			for tick := 0; tick < spec.Iterations; tick++ {
				before := snapshotBytes()
				t1, s1, err := rt.Observe()
				if err != nil {
					t.Fatal(err)
				}
				t2, s2, err := rt.Observe()
				if err != nil {
					t.Fatal(err)
				}
				if t1 != tick || t2 != tick {
					t.Fatalf("Observe returned ticks %d, %d, want %d both times", t1, t2, tick)
				}
				if !s1.Equal(s2) {
					t.Fatalf("tick %d: two Observes without an Apply returned different schedules", tick)
				}
				checkObservation(t, rt, tick, s1)
				if !bytes.Equal(before, snapshotBytes()) {
					t.Fatalf("tick %d: Observe changed the runtime's snapshot", tick)
				}
				if rt.StepsDone() != tick || rt.ObservedSchedule(tick) != nil {
					t.Fatalf("tick %d: Observe advanced the runtime", tick)
				}
				if _, err := rt.Apply(t2, s2); err != nil {
					t.Fatal(err)
				}
				// The observation is spent: applying it again is refused.
				if _, err := rt.Apply(t2, s2); err == nil {
					t.Fatalf("tick %d applied twice", tick)
				}
			}
		})
	}
}

// checkObservation checks tick's schedule against the scenario's
// observation protocol: a replay scenario runs every job of the trace, a
// windowed one exactly the jobs of the tick's interval-long window, and
// the cluster runs at the spec's capacity until a capacity change takes
// over from its iteration on.
func checkObservation(t *testing.T, rt *Runtime, tick int, sched *cluster.Schedule) {
	t.Helper()
	want := rt.Trace
	if !rt.Spec.Replay {
		from := time.Duration(tick) * rt.Interval
		want = rt.Trace.Window(from, from+rt.Interval)
	}
	var got, wantIDs []string
	for _, j := range sched.Jobs {
		got = append(got, j.ID)
	}
	for _, j := range want.Jobs {
		wantIDs = append(wantIDs, j.ID)
	}
	slices.Sort(got)
	slices.Sort(wantIDs)
	if len(wantIDs) == 0 || !slices.Equal(got, wantIDs) {
		t.Fatalf("tick %d ran jobs %v, want the %d jobs %v", tick, got, len(wantIDs), wantIDs)
	}
	capacity := rt.Spec.Capacity
	for _, cc := range rt.Spec.CapacityChanges {
		if tick >= cc.AtIteration {
			capacity = cc.Capacity
		}
	}
	if sched.Capacity != capacity {
		t.Fatalf("tick %d ran at capacity %d, want %d", tick, sched.Capacity, capacity)
	}
}

// failOnce is a Strategy whose first Propose fails.
type failOnce struct {
	pald.Strategy
	failed bool
}

func (f *failOnce) Propose(x linalg.Vector, obs []float64, n int) ([]linalg.Vector, error) {
	if !f.failed {
		f.failed = true
		return nil, errors.New("injected propose failure")
	}
	return f.Strategy.Propose(x, obs, n)
}

// TestFailedStepRecordsNoSchedule is the regression test for the
// observed-schedule record running ahead of the iteration record: a Step
// whose control half fails must record nothing, so the retry's schedule
// lands at the retry's iteration index.
func TestFailedStepRecordsNoSchedule(t *testing.T) {
	spec, err := LoadFile(filepath.Join("testdata", "scenarios", "steady-two-tenant.json"))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := pald.NewRandomSearch(cluster.DefaultSpace(spec.Capacity, spec.TenantNames()).Dim(), 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Build(spec, Options{Parallelism: 1, Strategy: &failOnce{Strategy: inner}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Step(); err == nil {
		t.Fatal("Step succeeded through a failing Propose")
	}
	if rt.StepsDone() != 0 || rt.ObservedSchedule(0) != nil {
		t.Fatalf("failed Step recorded state: %d steps, schedule 0 recorded = %v", rt.StepsDone(), rt.ObservedSchedule(0) != nil)
	}
	it, err := rt.Step()
	if err != nil {
		t.Fatal(err)
	}
	sched := rt.ObservedSchedule(0)
	if it.Index != 0 || sched == nil || rt.ObservedSchedule(1) != nil {
		t.Fatalf("retry recorded iteration %d, schedule 0 recorded = %v, schedule 1 recorded = %v",
			it.Index, sched != nil, rt.ObservedSchedule(1) != nil)
	}
	if it.SubmittedJobs != len(sched.Jobs) {
		t.Fatalf("iteration 0 reports %d jobs, its recorded schedule has %d", it.SubmittedJobs, len(sched.Jobs))
	}
}
