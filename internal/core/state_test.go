package core

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"tempo/internal/cluster"
	"tempo/internal/linalg"
)

// stayStrategy is a minimal non-PALD Strategy: it proposes the current
// point unchanged. Used to check snapshotting refuses custom strategies.
type stayStrategy struct{}

func (stayStrategy) Name() string                           { return "stay" }
func (stayStrategy) Observe(linalg.Vector, []float64) error { return nil }
func (stayStrategy) Propose(x linalg.Vector, _ []float64, n int) ([]linalg.Vector, error) {
	out := make([]linalg.Vector, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, x.Clone())
	}
	return out, nil
}

// TestControllerSnapshotRoundTrip runs the two-tenant control loop
// halfway, snapshots, restores the snapshot (through JSON, as the real
// persistence path does) into a freshly built controller, and checks the
// remaining iterations of both controllers are identical — configs,
// observed and predicted QS vectors, switch/revert decisions. This is the
// in-memory core of the crash-recovery guarantee: same spec + snapshot =
// same trajectory.
func TestControllerSnapshotRoundTrip(t *testing.T) {
	const total, half = 8, 4
	seed := int64(11)

	run := func(steps int) (*Controller, []Iteration) {
		cfg, initial, env := twoTenantSetup(t, seed)
		c, err := NewController(cfg, initial)
		if err != nil {
			t.Fatal(err)
		}
		iters, err := env.run(c, steps)
		if err != nil {
			t.Fatal(err)
		}
		return c, iters
	}

	ref, want := run(total)
	mid, _ := run(half)

	snap, err := mid.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded ControllerState
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}

	cfg, initial, env := twoTenantSetup(t, seed)
	restored, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(&decoded); err != nil {
		t.Fatal(err)
	}
	got, err := env.run(restored, total-half)
	if err != nil {
		t.Fatal(err)
	}
	want = want[half:]
	for i := range want {
		// Search stats are cache-temperature diagnostics, not trajectory: a
		// restored controller re-drives the identical decisions from a cold
		// cross-tick cache, so its warm-start/simulation tallies legitimately
		// differ from the uninterrupted run's. Everything the trajectory
		// consists of (config, observations, predictions, switches) must
		// still match exactly.
		got[i].Search, want[i].Search = nil, nil
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("iteration %d diverges after restore:\n got %+v\nwant %+v", half+i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(restored.Current(), ref.Current()) {
		t.Errorf("final configuration diverges:\n got %+v\nwant %+v", restored.Current(), ref.Current())
	}
	if !reflect.DeepEqual(restored.Targets(), ref.Targets()) {
		t.Errorf("targets diverge:\n got %+v\nwant %+v", restored.Targets(), ref.Targets())
	}
}

// TestControllerSnapshotBeforeFirstStep locks the nil-scales distinction:
// a snapshot taken before any observation restores to a controller that
// still freezes its normalization scales at the first Apply.
func TestControllerSnapshotBeforeFirstStep(t *testing.T) {
	seed := int64(3)
	cfg, initial, _ := twoTenantSetup(t, seed)
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Scales != nil {
		t.Fatalf("pre-step snapshot has scales %v, want none", snap.Scales)
	}

	cfg2, initial2, env := twoTenantSetup(t, seed)
	restored, err := NewController(cfg2, initial2)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	itA, err := env.step(restored)
	if err != nil {
		t.Fatal(err)
	}
	cfg3, initial3, _ := twoTenantSetup(t, seed)
	fresh, err := NewController(cfg3, initial3)
	if err != nil {
		t.Fatal(err)
	}
	itB, err := env.step(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(itA, itB) {
		t.Errorf("first step after empty-state restore diverges:\n got %+v\nwant %+v", itA, itB)
	}
}

// TestControllerRestoreValidates rejects shape mismatches and custom
// strategies, before and after the first Apply.
func TestControllerRestoreValidates(t *testing.T) {
	cfg, initial, env := twoTenantSetup(t, 5)
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(nil); err == nil {
		t.Error("nil state accepted")
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := *snap
	bad.CurrentX = []float64{1}
	if err := c.Restore(&bad); err == nil {
		t.Error("wrong-dimension state accepted")
	}
	bad = *snap
	bad.Targets = bad.Targets[:1]
	if err := c.Restore(&bad); err == nil {
		t.Error("wrong target count accepted")
	}
	bad = *snap
	bad.Optimizer = nil
	if err := c.Restore(&bad); err == nil {
		t.Error("missing optimizer state accepted")
	}

	// A snapshot taken after an Apply carries the per-template scales and
	// the guard's previous observation; a wrong length of either would
	// restore cleanly and then panic, or silently change the trajectory,
	// at the next Apply.
	if _, err := env.step(c); err != nil {
		t.Fatal(err)
	}
	post, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(post); err != nil {
		t.Fatalf("post-Apply snapshot rejected: %v", err)
	}
	for _, row := range []struct {
		name   string
		mutate func(*ControllerState)
	}{
		{"short scales", func(st *ControllerState) { st.Scales = st.Scales[:1] }},
		{"long scales", func(st *ControllerState) { st.Scales = append(slices.Clone(st.Scales), 1) }},
		{"short previous observation", func(st *ControllerState) { st.PrevObserved = st.PrevObserved[:1] }},
		{"has_prev without a previous observation", func(st *ControllerState) { st.PrevObserved = nil }},
		{"previous observation without has_prev", func(st *ControllerState) { st.HasPrev = false }},
		{"invalid previous config", func(st *ControllerState) { st.PrevConfig = cluster.Config{} }},
	} {
		bad := *post
		row.mutate(&bad)
		if err := c.Restore(&bad); err == nil {
			t.Errorf("%s accepted", row.name)
		}
	}

	// Custom strategies cannot snapshot.
	custom := cfg
	custom.Strategy = stayStrategy{}
	cc, err := NewController(custom, initial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Snapshot(); err == nil {
		t.Error("custom-strategy snapshot accepted")
	}
	if err := cc.Restore(snap); err == nil {
		t.Error("custom-strategy restore accepted")
	}
}
