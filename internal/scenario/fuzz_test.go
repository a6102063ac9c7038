package scenario

import (
	"testing"
	"time"
)

// FuzzSpecBuilds fuzzes the run-shaping fields of the committed
// steady-two-tenant spec (interval, iterations, capacity, protocol, and one
// tenant's scale, growth, replication and lifecycle) and checks that a spec
// Validate accepts builds and runs a tick: Validate and Build share one
// pass, so a spec that passes Load must not fail later in Build or Step.
// Accepted specs past a small bound are skipped to keep each run cheap.
func FuzzSpecBuilds(f *testing.F) {
	base, err := LoadFile("testdata/scenarios/steady-two-tenant.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(30.0, 2, 32, true, byte(0), 1.5, 0.0, 0, 0.0, 0.0)
	f.Add(1e-12, 2, 32, true, byte(0), 1.5, 0.0, 0, 0.0, 0.0) // truncates to a zero interval
	f.Add(20.0, 3, 16, false, byte(1), 2.0, 1.5, 0, 0.25, 0.75)
	f.Add(1.0, 4, 256, false, byte(0), 4.0, 4.0, 1, 0.0, 0.01)
	f.Fuzz(func(t *testing.T, intervalMinutes float64, iterations, capacity int, replay bool,
		tenant byte, scale, grow float64, count int, arriveHours, departHours float64) {
		s := *base
		s.Tenants = append([]TenantSpec(nil), base.Tenants...)
		s.IntervalMinutes, s.Iterations, s.Capacity, s.Replay = intervalMinutes, iterations, capacity, replay
		tn := &s.Tenants[int(tenant)%len(s.Tenants)]
		tn.Scale, tn.Grow, tn.Count = scale, grow, count
		tn.ArriveAfterHours, tn.DepartAfterHours = arriveHours, departHours
		if s.Validate() != nil {
			return
		}
		if len(s.ExpandedTenants()) > 8 || s.Iterations > 4 || s.Horizon() > 4*time.Hour ||
			s.Capacity > 256 || tn.Scale > 4 || tn.Grow > 4 {
			return
		}
		rt, err := Build(&s, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("Validate accepted the spec but Build failed: %v", err)
		}
		if _, err := rt.Step(); err != nil {
			t.Fatalf("Validate accepted the spec but its first Step failed: %v", err)
		}
	})
}
