package whatif

import (
	"slices"
	"sync"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

// cacheTrace is a two-tenant trace small enough to digest by hand.
func cacheTrace(t testing.TB) *workload.Trace {
	t.Helper()
	tr, err := workload.Generate([]workload.TenantProfile{workload.BestEffort("a", 0.5), workload.DeadlineDriven("b", 0.5)},
		workload.GenerateOptions{Horizon: 20 * time.Minute, Seed: 3, Name: "cache"})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// cacheDigest returns an owned digest of the trace's schedule on a
// cluster of the given capacity, and its hash.
func cacheDigest(t testing.TB, sm *cluster.Sim, tr *workload.Trace, capacity int) ([]uint64, uint64) {
	t.Helper()
	if _, err := sm.RunInto(tr, cluster.Config{TotalContainers: capacity}, cluster.Options{}); err != nil {
		t.Fatal(err)
	}
	return sm.AppendDigest(nil)
}

// TestEvalCacheReuseAndCollisionSafety pins the schedule tier's sharing
// semantics: an equal digest hits the tier, a different digest presented
// with a colliding hash is rejected by the exact word comparison, and
// samples never share entries.
func TestEvalCacheReuseAndCollisionSafety(t *testing.T) {
	c := &searchState{samples: make([]searchSample, 2)}
	sm, tr := cluster.NewSim(), cacheTrace(t)
	d1, fp := cacheDigest(t, sm, tr, 4)
	vals := []float64{1, 2}
	c.store(0, fp, d1, vals)

	same, sameFP := cacheDigest(t, sm, tr, 4)
	if got := c.lookup(0, sameFP, same); got == nil || &got[0] != &vals[0] {
		t.Fatal("an equal digest did not reuse the cached vector")
	}
	// A forged hash collision must be caught by the exact compare.
	different, _ := cacheDigest(t, sm, tr, 5)
	if slices.Equal(different, d1) {
		t.Fatal("fixture: capacities 4 and 5 digest alike")
	}
	if got := c.lookup(0, fp, different); got != nil {
		t.Fatal("a colliding hash with a different digest reused a vector")
	}
	// Entries are per sample: the same digest under another sample index
	// must not match (its workload draw differs).
	if got := c.lookup(1, fp, same); got != nil {
		t.Fatal("cache leaked a vector across sample indexes")
	}
}

// TestCacheTiersHoldNoEvictedEntries: both tiers keep exactly their cap's
// worth of array however many entries pass through, so an evicted entry
// (a digest, in the schedule tier) is unreachable at once, and eviction
// never writes through a concurrent reader's snapshot. Run under -race.
func TestCacheTiersHoldNoEvictedEntries(t *testing.T) {
	st := &searchState{samples: make([]searchSample, 1)}
	sim, tr := cluster.NewSim(), cacheTrace(t)
	probe, probeFP := cacheDigest(t, sim, tr, 1)
	cfg := cluster.Config{TotalContainers: 4}
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
				st.lookup(0, probeFP, probe)
			}
		}
	}()
	for i := 0; i < 10*maxSearchConfigPerSample; i++ {
		digest, fp := cacheDigest(t, sim, tr, 2+i)
		st.store(0, fp, digest, []float64{float64(i)})
		cfg.TotalContainers = 4 + i
		st.storeConfig(0, cfg.Fingerprint(), cfg, []float64{float64(i)})
		sm := &st.samples[0]
		if cap(sm.sched) > maxSchedPerSample || cap(sm.cfgs) > maxSearchConfigPerSample {
			t.Fatalf("after %d stores: cap(sched)=%d (limit %d), cap(cfgs)=%d (limit %d)",
				i+1, cap(sm.sched), maxSchedPerSample, cap(sm.cfgs), maxSearchConfigPerSample)
		}
	}
	close(stop)
	wg.Wait()
	sm := &st.samples[0]
	if len(sm.sched) != maxSchedPerSample || len(sm.cfgs) != maxSearchConfigPerSample {
		t.Fatalf("tiers hold %d/%d entries, want them full at %d/%d", len(sm.sched), len(sm.cfgs), maxSchedPerSample, maxSearchConfigPerSample)
	}
	// FIFO: the survivors are the newest entries, oldest first.
	last := 10*maxSearchConfigPerSample - 1
	if got := sm.sched[0].vals[0]; got != float64(last-maxSchedPerSample+1) {
		t.Fatalf("oldest schedule entry is store %v, want %d", got, last-maxSchedPerSample+1)
	}
	if got := st.lookupConfig(0, cfg.Fingerprint(), &cfg); got == nil || got[0] != float64(last) {
		t.Fatalf("newest config entry = %v, want store %d", got, last)
	}
}

// TestStoredDigestsOwnTheirWords: a schedule-tier entry keeps an
// exact-size copy of its digest, never the worker's buffer, so the ten
// pairs the same Scratch scores next leave every stored digest as it
// was stored.
func TestStoredDigestsOwnTheirWords(t *testing.T) {
	tr := cacheTrace(t)
	m, err := FromTrace([]qs.Template{{Metric: qs.Utilization}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	st := &searchState{}
	st.reconcile(len(m.Templates), m.Horizon, []*workload.Trace{tr})
	sc := &Scratch{sim: cluster.NewSim()}
	score := func(capacity int) {
		if _, err := m.evalSample(st, sc, tr, cluster.Config{TotalContainers: capacity}, 0); err != nil {
			t.Fatal(err)
		}
	}
	score(3)
	stored := st.samples[0].sched[0].digest
	want := slices.Clone(stored)
	if cap(stored) != len(stored) {
		t.Errorf("stored digest has cap %d for %d words, want exact size", cap(stored), len(stored))
	}
	for capacity := 4; capacity < 14; capacity++ {
		score(capacity)
	}
	if n := len(st.samples[0].sched); n != 11 {
		t.Fatalf("tier holds %d entries after 11 distinct capacities, want 11", n)
	}
	if !slices.Equal(stored, want) {
		t.Fatal("a stored digest changed while its Scratch scored more pairs: it aliases the worker's buffer")
	}
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
	// candidate predicts identical records and the batch shares one QS
	// evaluation.
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
