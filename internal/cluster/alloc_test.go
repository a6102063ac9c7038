//go:build !race

package cluster

import (
	"testing"
	"time"
)

// maxWarmRunAllocs bounds a warmed RunInto's heap allocations. What is
// left is per run, not per event, task, job or tenant: the *Schedule,
// and Trace.Validate's duplicate-ID map (none up to eight jobs, three
// above). The race detector's instrumentation allocates on its own,
// hence the build tag.
const maxWarmRunAllocs = 8

// TestSimSteadyStateAllocs locks the kernel's allocation contract: on a
// Sim warmed by a kernelCases row, rerunning that row allocates a small
// constant number of times, whatever its trace size, tenant count,
// contention or noise, and Detach adds exactly its two record copies.
// The extra "contended-certified" row keeps a hundred tenants waiting on
// twelve containers with no preemption timeout, so every run logs
// thousands of contended picks for its certificate: the log allocates
// nothing once warmed, and Certificate adds exactly its three copies.
func TestSimSteadyStateAllocs(t *testing.T) {
	hundred := kernelTrace(t, manyTenants(100, 0.3), time.Hour, 11)
	contended := kernelCase{"contended-certified", hundred, kernelConfig(hundred, 12, func(i int) TenantConfig {
		return TenantConfig{Weight: 1 + float64(i%4), MinShare: i % 3}
	}), Options{}}
	sm := NewSim()
	if _, err := sm.RunInto(contended.trace, contended.cfg, contended.opts); err != nil {
		t.Fatal(err)
	}
	if c := sm.Certificate(); c == nil || len(c.log) < 1000 {
		t.Fatalf("%s: want a certificate with a long pick log, got %v", contended.name, c)
	}
	if allocs := testing.AllocsPerRun(20, func() { sm.Certificate() }); allocs != 3 {
		t.Errorf("%s: Certificate allocates %.0f times, want 3", contended.name, allocs)
	}
	for _, kc := range append(kernelCases(t), contended) {
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
		t.Logf("%-20s tenants=%3d jobs=%4d  RunInto %2.0f  +Detach %2.0f",
			kc.name, len(kc.trace.Tenants()), len(kc.trace.Jobs), allocs, detached)
		if allocs > maxWarmRunAllocs {
			t.Errorf("%s: warmed RunInto allocates %.0f times, want at most %d", kc.name, allocs, maxWarmRunAllocs)
		}
		if detached != allocs+2 {
			t.Errorf("%s: RunInto+Detach allocates %.0f times, want RunInto's %.0f + 2", kc.name, detached, allocs)
		}
	}
}
