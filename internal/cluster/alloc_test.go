//go:build !race

package cluster

import "testing"

// maxWarmRunAllocs bounds a warmed RunInto's heap allocations. What is
// left is per run, not per event, task, job or tenant: the *Schedule,
// and Trace.Validate's duplicate-ID map (none up to eight jobs, three
// above). The race detector's instrumentation allocates on its own,
// hence the build tag.
const maxWarmRunAllocs = 8

// TestSimSteadyStateAllocs locks the kernel's allocation contract: on a
// Sim warmed by a kernelCases row, rerunning that row allocates a small
// constant number of times, whatever its trace size, tenant count,
// contention or noise, Detach adds exactly its two record copies, and
// AppendDigest into a warmed buffer allocates nothing.
func TestSimSteadyStateAllocs(t *testing.T) {
	for _, kc := range kernelCases(t) {
		sm := NewSim()
		run := func() {
			if _, err := sm.RunInto(kc.trace, kc.cfg, kc.opts); err != nil {
				t.Fatalf("%s: %v", kc.name, err)
			}
		}
		run()
		// Twenty runs each, so a stray allocation elsewhere in the
		// process cannot lift the per-run average by one.
		allocs := testing.AllocsPerRun(20, run)
		detached := testing.AllocsPerRun(20, func() {
			run()
			sm.Detach()
		})
		run()
		digest, _ := sm.AppendDigest(nil)
		digested := testing.AllocsPerRun(20, func() { digest, _ = sm.AppendDigest(digest[:0]) })
		t.Logf("%-20s tenants=%3d jobs=%4d  RunInto %2.0f  +Detach %2.0f  AppendDigest %.0f",
			kc.name, len(kc.trace.Tenants()), len(kc.trace.Jobs), allocs, detached, digested)
		if digested != 0 {
			t.Errorf("%s: AppendDigest into a warmed buffer allocates %.0f times, want 0", kc.name, digested)
		}
		if allocs > maxWarmRunAllocs {
			t.Errorf("%s: warmed RunInto allocates %.0f times, want at most %d", kc.name, allocs, maxWarmRunAllocs)
		}
		if detached != allocs+2 {
			t.Errorf("%s: RunInto+Detach allocates %.0f times, want RunInto's %.0f + 2", kc.name, detached, allocs)
		}
	}
}
