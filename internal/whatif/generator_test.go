package whatif

import (
	"fmt"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/workload"
)

// TestFromProfilesDrawsOncePerControlLoopSample: FromProfiles draws each
// sample once, up front, and every draw is what workload.Generate
// produces for the sample's mixed seed and name; scoring never replaces a
// trace, so repeated searches see the same pointers.
func TestFromProfilesDrawsOncePerControlLoopSample(t *testing.T) {
	const samples = 3
	profiles := []workload.TenantProfile{
		workload.DeadlineDriven("etl", 0.4),
		workload.BestEffort("adhoc", 0.4),
	}
	m, err := FromProfiles(testTemplates(), profiles, time.Hour, 42, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Traces) != samples {
		t.Fatalf("%d traces, want %d", len(m.Traces), samples)
	}
	drawn := append([]*workload.Trace(nil), m.Traces...)
	for s, tr := range drawn {
		want, err := workload.Generate(profiles, workload.GenerateOptions{
			Horizon: time.Hour, Seed: mixSeed(42, s), Name: fmt.Sprintf("whatif-%d", s),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Equal(want) {
			t.Fatalf("sample %d differs from a fresh workload.Generate", s)
		}
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"etl": {Weight: 1}, "adhoc": {Weight: 1}}}
	for call := 0; call < 2; call++ {
		if _, _, _, err := m.EvaluateSearch([]cluster.Config{cfg}); err != nil {
			t.Fatal(err)
		}
		for s := range drawn {
			if m.Traces[s] != drawn[s] {
				t.Fatalf("call %d replaced sample %d", call, s)
			}
		}
	}
}
