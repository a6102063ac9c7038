package whatif

import (
	"sync"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

// TestScratchPoolConcurrentBatches hammers the shared Sim pool: 32
// goroutines run EvaluateBatch concurrently (each batch itself fanning out
// over 2 workers) between detached cluster.Run calls, all borrowing Sims
// from cluster's one pool, and every result must be bit-identical to the
// sequential evaluation. Run under -race in CI: it is the test that a
// recycled Sim is never shared by two live evaluations.
func TestScratchPoolConcurrentBatches(t *testing.T) {
	profiles := []workload.TenantProfile{
		workload.DeadlineDriven("etl", 0.4),
		workload.BestEffort("adhoc", 0.4),
	}
	templates := []qs.Template{
		{Queue: "etl", Metric: qs.DeadlineViolations, Slack: 0.25},
		{Queue: "adhoc", Metric: qs.AvgResponseTime},
		{Metric: qs.Utilization},
	}
	m, err := FromProfiles(templates, profiles, 45*time.Minute, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := cluster.Config{
		TotalContainers: 16,
		Tenants: map[string]cluster.TenantConfig{
			"etl":   {Weight: 2, MinShare: 4, SharePreemptTimeout: 5 * time.Minute},
			"adhoc": {Weight: 1},
		},
	}
	cfgs := []cluster.Config{base}
	for w := 2; w <= 8; w *= 2 {
		c := base.Clone()
		tc := c.Tenants["etl"]
		tc.Weight = float64(w)
		c.Tenants["etl"] = tc
		cfgs = append(cfgs, c)
	}
	m.Parallelism = 1
	want, err := m.EvaluateBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*cluster.Schedule, error) {
		return cluster.Run(m.Traces[0], base, cluster.Options{Horizon: 45 * time.Minute})
	}
	wantSched, err := run()
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			mm := *m // models share Traces/Templates; Parallelism is private per goroutine
			mm.Parallelism = 2
			for iter := 0; iter < 3; iter++ {
				got, err := mm.EvaluateBatch(cfgs)
				if err != nil {
					errc <- err
					return
				}
				sched, err := run()
				if err != nil {
					errc <- err
					return
				}
				if !sched.Equal(wantSched) {
					t.Error("a detached run between batches differs from the sequential one")
					return
				}
				for c := range want {
					for k := range want[c] {
						if got[c][k] != want[c][k] {
							t.Errorf("concurrent batch row %d objective %d: %v != %v", c, k, got[c][k], want[c][k])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
