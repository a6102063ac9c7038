package cluster

import (
	"slices"
	"testing"
	"time"

	"tempo/internal/workload"
)

func runTestTrace(t *testing.T, seed int64, horizon time.Duration) *workload.Trace {
	t.Helper()
	tr, err := workload.Generate(
		[]workload.TenantProfile{
			workload.DeadlineDriven("etl", 0.5),
			workload.BestEffort("adhoc", 0.5),
		},
		workload.GenerateOptions{Horizon: horizon, Seed: seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSimReuseDeterministic locks the reuse contract: a Sim dirtied by
// arbitrary other runs must reproduce a fresh simulator's schedule
// bit-for-bit, for both the deterministic predictor and the noisy
// emulation. This is the property that makes pooling invisible to every
// downstream consumer (what-if scoring, goldens, load verification).
func TestSimReuseDeterministic(t *testing.T) {
	traceA := runTestTrace(t, 7, 2*time.Hour)
	traceB := runTestTrace(t, 8, time.Hour)
	cfg := Config{
		TotalContainers: 20,
		Tenants: map[string]TenantConfig{
			"etl":   {Weight: 2, MinShare: 5, SharePreemptTimeout: 5 * time.Minute},
			"adhoc": {Weight: 1},
		},
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"predictor", Options{Horizon: time.Hour}},
		{"noisy", Options{Horizon: time.Hour, Noise: DefaultNoise(3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := NewSim().RunInto(traceA, cfg, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			// want borrows its Sim's records; that Sim runs nothing else, so
			// it stays valid for the comparisons below.
			sm := NewSim()
			if _, err := sm.RunInto(traceB, cfg, Options{}); err != nil {
				t.Fatal(err) // dirty the Sim with a different shape
			}
			for i := 0; i < 3; i++ {
				got, err := sm.RunInto(traceA, cfg, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("rerun %d on a dirty Sim diverged: %v vs %v", i, got, want)
				}
			}
		})
	}
}

// TestSimDetach locks Detach's ownership transfer: a detached schedule
// must survive later runs on the same Sim unchanged, while an
// undetached one is recycled (its backing is reused).
func TestSimDetach(t *testing.T) {
	trace := runTestTrace(t, 9, time.Hour)
	cfg := Config{TotalContainers: 10, Tenants: map[string]TenantConfig{"etl": {Weight: 1}, "adhoc": {Weight: 1}}}
	sm := NewSim()
	first, err := sm.RunInto(trace, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sm.Detach()
	snapshot := &Schedule{
		Capacity:    first.Capacity,
		Horizon:     first.Horizon,
		TenantNames: slices.Clone(first.TenantNames),
		Tasks:       slices.Clone(first.Tasks),
		Jobs:        slices.Clone(first.Jobs),
	}
	other := runTestTrace(t, 10, 30*time.Minute)
	if _, err := sm.RunInto(other, cfg, Options{}); err != nil {
		t.Fatal(err)
	}
	if !first.Equal(snapshot) {
		t.Fatal("detached schedule was mutated by a later run on the same Sim")
	}
}

// TestDetachOwnsRecords locks copy-on-detach: Detach gives the schedule
// exact-size copies of its records and the Sim keeps its own arrays,
// so ten later runs of other rows on the same Sim change nothing in it.
func TestDetachOwnsRecords(t *testing.T) {
	cases := kernelCases(t)
	kc := cases[0]
	want, err := NewSim().RunInto(kc.trace, kc.cfg, kc.opts)
	if err != nil {
		t.Fatal(err)
	}
	sm := NewSim()
	got, err := sm.RunInto(kc.trace, kc.cfg, kc.opts)
	if err != nil {
		t.Fatal(err)
	}
	sm.Detach()
	if cap(got.Tasks) != len(got.Tasks) || cap(got.Jobs) != len(got.Jobs) {
		t.Fatalf("detached arrays have cap %d/%d for len %d/%d", cap(got.Tasks), cap(got.Jobs), len(got.Tasks), len(got.Jobs))
	}
	for _, other := range cases[1:11] {
		if _, err := sm.RunInto(other.trace, other.cfg, other.opts); err != nil {
			t.Fatalf("%s: %v", other.name, err)
		}
	}
	if !got.Equal(want) {
		t.Fatal("detached schedule changed under later runs on the same Sim")
	}
}

// TestDetachAfterFailedRun: a RunInto that fails validation forgets the
// last schedule, so a Detach after it (cluster.Run always detaches) cannot
// rewrite a schedule the caller already owns.
func TestDetachAfterFailedRun(t *testing.T) {
	trace := runTestTrace(t, 9, time.Hour)
	cfg := Config{TotalContainers: 10, Tenants: map[string]TenantConfig{"etl": {Weight: 1}, "adhoc": {Weight: 1}}}
	sm := NewSim()
	first, err := sm.RunInto(trace, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sm.Detach()
	want, err := NewSim().RunInto(trace, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tasks, jobs := &first.Tasks[0], &first.Jobs[0]
	if _, err := sm.RunInto(trace, Config{}, Options{}); err == nil {
		t.Fatal("RunInto accepted a zero-capacity config")
	}
	sm.Detach()
	if !first.Equal(want) || &first.Tasks[0] != tasks || &first.Jobs[0] != jobs {
		t.Fatal("Detach after a failed RunInto rewrote the previously detached schedule")
	}
	if sched, err := Run(trace, Config{}, Options{}); sched != nil || err == nil {
		t.Fatalf("Run with an invalid config = %v, %v; want nil and an error", sched, err)
	}
}
