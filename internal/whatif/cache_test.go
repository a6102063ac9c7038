package whatif

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

// TestEvalCacheReuseAndCollisionSafety pins the config tier's sharing
// semantics: an equal configuration hits the tier, a different one
// presented with a colliding fingerprint is rejected by the exact
// comparison, and samples never share entries.
func TestEvalCacheReuseAndCollisionSafety(t *testing.T) {
	st := &searchState{samples: make([]searchSample, 2)}
	cfg := cluster.Config{TotalContainers: 4, Tenants: map[string]cluster.TenantConfig{"a": {Weight: 1}}}
	fp := cfg.Fingerprint()
	vals := []float64{1, 2}
	st.storeConfig(0, fp, cfg, vals)

	same := cfg.Clone()
	if got := st.lookupConfig(0, same.Fingerprint(), &same); got == nil || &got[0] != &vals[0] {
		t.Fatal("an equal configuration did not reuse the cached vector")
	}
	// A forged fingerprint collision must be caught by the exact compare.
	different := cfg.Clone()
	different.TotalContainers = 5
	if got := st.lookupConfig(0, fp, &different); got != nil {
		t.Fatal("a colliding fingerprint with a different configuration reused a vector")
	}
	// Entries are per sample: the same configuration under another
	// sample index must not match (its workload draw differs).
	if got := st.lookupConfig(1, fp, &same); got != nil {
		t.Fatal("cache leaked a vector across sample indexes")
	}
	// The tier keys a clone: mutating the caller's map afterwards must
	// not move the key.
	cfg.Tenants["a"] = cluster.TenantConfig{Weight: 9}
	if got := st.lookupConfig(0, fp, &same); got == nil {
		t.Fatal("a caller's later mutation reached the stored key")
	}
}

// TestCacheTiersHoldNoEvictedEntries: the config tier is a ring of
// exactly its cap however many entries pass through, so an evicted entry
// is overwritten at once, and it evicts FIFO. A concurrent reader looks
// up throughout; run under -race.
func TestCacheTiersHoldNoEvictedEntries(t *testing.T) {
	st := &searchState{samples: make([]searchSample, 1)}
	probe := cluster.Config{TotalContainers: 1}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st.lookupConfig(0, probe.Fingerprint(), &probe)
			}
		}
	}()
	const stores = 10*maxSearchConfigPerSample + 3
	cfg := cluster.Config{}
	for i := 0; i < stores; i++ {
		cfg.TotalContainers = 4 + i
		st.storeConfig(0, cfg.Fingerprint(), cfg, []float64{float64(i)})
		st.mu.Lock()
		n := cap(st.samples[0].cfgs)
		st.mu.Unlock()
		if n != maxSearchConfigPerSample {
			t.Fatalf("after %d stores: cap(cfgs)=%d, want %d", i+1, n, maxSearchConfigPerSample)
		}
	}
	close(stop)
	wg.Wait()
	if n := len(st.samples[0].cfgs); n != maxSearchConfigPerSample {
		t.Fatalf("tier holds %d entries, want it full at %d", n, maxSearchConfigPerSample)
	}
	// FIFO: exactly the newest cap stores survive.
	for i := 0; i < stores; i++ {
		cfg.TotalContainers = 4 + i
		got := st.lookupConfig(0, cfg.Fingerprint(), &cfg)
		if alive := i >= stores-maxSearchConfigPerSample; alive != (got != nil) {
			t.Fatalf("store %d: held %t, want %t", i, got != nil, alive)
		}
		if got != nil && got[0] != float64(i) {
			t.Fatalf("store %d returned the vector of store %v", i, got[0])
		}
	}
}

// TestSearchEpochComparesTemplates: a model whose templates are replaced
// between two EvaluateSearch calls by a different set of the same length,
// or whose TaskKind is changed in place, must score the new set: the
// epoch compares templates by value, so no vector of the old set is
// served from a tier, and fresh simulations evaluate the new templates.
func TestSearchEpochComparesTemplates(t *testing.T) {
	mapKind := workload.Map
	before := []qs.Template{
		{Queue: "A", Metric: qs.AvgResponseTime},
		{Metric: qs.Utilization, TaskKind: &mapKind},
	}
	m, err := FromProfiles(before, []workload.TenantProfile{workload.BestEffort("A", 1)}, time.Hour, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Horizon = time.Hour
	cfgs := searchConfigs()
	if _, _, _, err := m.EvaluateSearch(cfgs); err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		t.Helper()
		preds, fresh, reused, err := m.EvaluateSearch(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleScores(t, m, cfgs); !reflect.DeepEqual(preds, want) {
			t.Fatalf("%s: search %v, oracle %v", what, preds, want)
		}
		// The first configuration's pairs open the call's first wave,
		// which no certificate of this epoch can serve yet.
		if fresh[0] != len(m.Traces) || reused[0] != 0 {
			t.Fatalf("%s: config 0 fresh=%d reused=%d, want every pair re-simulated", what, fresh[0], reused[0])
		}
	}
	m.Templates = []qs.Template{
		{Queue: "A", Metric: qs.Throughput},
		{Metric: qs.Utilization, TaskKind: &mapKind},
	}
	check("a different set of the same length")
	mapKind = workload.Reduce
	check("TaskKind changed in place")
}

// TestEvaluateBatchSharesIdenticalCandidates runs a batch where several
// candidates provably produce the same predicted schedule (the predictor
// ignores config differences beyond the contention point) and asserts the
// rows are identical to each other and to the oracle value.
func TestEvaluateBatchSharesIdenticalCandidates(t *testing.T) {
	profiles := []workload.TenantProfile{workload.BestEffort("a", 1)}
	trace, err := workload.Generate(profiles, workload.GenerateOptions{Horizon: time.Hour, Seed: 5, Name: "cache"})
	if err != nil {
		t.Fatal(err)
	}
	templates := []qs.Template{
		{Queue: "a", Metric: qs.AvgResponseTime},
		{Metric: qs.Utilization},
	}
	model, err := FromTrace(templates, trace)
	if err != nil {
		t.Fatal(err)
	}
	model.Horizon = time.Hour
	model.Parallelism = 4
	base := cluster.Config{TotalContainers: 32, Tenants: map[string]cluster.TenantConfig{"a": {Weight: 1}}}
	// With a single tenant, weight changes cannot alter the schedule: every
	// candidate predicts identical records, and every row must be the
	// oracle's.
	cfgs := []cluster.Config{base}
	for _, w := range []float64{2, 3, 5} {
		c := base.Clone()
		tc := c.Tenants["a"]
		tc.Weight = w
		c.Tenants["a"] = tc
		cfgs = append(cfgs, c)
	}
	rows, err := model.EvaluateBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := cluster.Run(trace, base, cluster.Options{Horizon: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	want := qs.EvalAll(templates, sched, 0, sched.Horizon+time.Nanosecond)
	for r := range rows {
		for i := range want {
			if rows[r][i] != want[i] {
				t.Fatalf("row %d objective %d: got %v, want oracle %v", r, i, rows[r][i], want[i])
			}
		}
	}
}
