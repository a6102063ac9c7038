package whatif

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tempo/internal/workload"
)

func generatorModel(t *testing.T, samples int) (*Model, []workload.TenantProfile) {
	t.Helper()
	profiles := []workload.TenantProfile{
		workload.DeadlineDriven("etl", 0.4),
		workload.BestEffort("adhoc", 0.4),
	}
	m, err := FromProfiles(testTemplates(), profiles, time.Hour, 42)
	if err != nil {
		t.Fatal(err)
	}
	m.Samples = samples
	return m, profiles
}

// TestFromProfilesDrawsOncePerControlLoopSample: a redraw of an index the
// control loop scores (below Samples) hands back the first draw's
// pointer, and that draw is what workload.Generate produces for the
// sample's seed and name; indices beyond Samples (Sensitivity's) are
// drawn afresh each time and not retained.
func TestFromProfilesDrawsOncePerControlLoopSample(t *testing.T) {
	const samples = 3
	m, profiles := generatorModel(t, samples)
	for s := 0; s < samples+2; s++ {
		first, err := m.Gen(s)
		if err != nil {
			t.Fatal(err)
		}
		again, err := m.Gen(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := workload.Generate(profiles, workload.GenerateOptions{
			Horizon: time.Hour, Seed: mixSeed(42, s), Name: fmt.Sprintf("whatif-%d", s),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !first.Equal(want) || !again.Equal(want) {
			t.Fatalf("sample %d differs from a fresh workload.Generate", s)
		}
		if retained := first == again; retained != (s < samples) {
			t.Fatalf("sample %d of %d: retained = %v", s, samples, retained)
		}
	}
}

// TestFromProfilesConcurrentFirstDraws: 32 goroutines racing on the first
// draw of every sample all come back with one trace per sample. Run under
// -race.
func TestFromProfilesConcurrentFirstDraws(t *testing.T) {
	const samples, goroutines = 4, 32
	m, _ := generatorModel(t, samples)
	got := make([][samples]*workload.Trace, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < samples; i++ {
				s := (g + i) % samples
				tr, err := m.Gen(s)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][s] = tr
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d drew %v, goroutine 0 %v", g, got[g], got[0])
		}
	}
}
