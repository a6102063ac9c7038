package whatif

import (
	"sync"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

func cacheSchedule(submit time.Duration) *cluster.Schedule {
	return &cluster.Schedule{
		Capacity: 4,
		Horizon:  time.Hour,
		Jobs: []cluster.JobRecord{
			{ID: "j", Tenant: "a", Submit: submit, Finish: submit + time.Minute, Completed: true},
		},
		Tasks: []cluster.TaskRecord{
			{JobID: "j", Tenant: "a", Start: submit, End: submit + time.Minute, Outcome: cluster.TaskFinished},
		},
	}
}

// TestEvalCacheReuseAndCollisionSafety pins the schedule tier's sharing
// semantics: a schedule with identical records hits the tier, a different
// schedule presented with a colliding fingerprint is rejected by the
// exact record comparison, and samples never share entries.
func TestEvalCacheReuseAndCollisionSafety(t *testing.T) {
	c := &searchState{samples: make([]searchSample, 2)}
	s1 := cacheSchedule(time.Second)
	fp := s1.Fingerprint()
	vals := []float64{1, 2}
	c.store(0, s1, fp, vals)

	same := cacheSchedule(time.Second)
	if got := c.lookup(0, same, same.Fingerprint()); got == nil || &got[0] != &vals[0] {
		t.Fatal("identical schedule did not reuse the cached vector")
	}
	// A forged fingerprint collision must be caught by the exact compare.
	different := cacheSchedule(2 * time.Second)
	if got := c.lookup(0, different, fp); got != nil {
		t.Fatal("colliding fingerprint with different records reused a vector")
	}
	// Entries are per sample: the same schedule under another sample index
	// must not match (its workload draw differs).
	if got := c.lookup(1, same, fp); got != nil {
		t.Fatal("cache leaked a vector across sample indexes")
	}
}

// TestCacheTiersHoldNoEvictedEntries: both tiers keep exactly their cap's
// worth of array however many entries pass through, so an evicted entry
// (a full schedule, in the schedule tier) is unreachable at once, and
// eviction never writes through a concurrent reader's snapshot. Run under
// -race.
func TestCacheTiersHoldNoEvictedEntries(t *testing.T) {
	st := &searchState{samples: make([]searchSample, 1)}
	cfg := cluster.Config{TotalContainers: 4}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		probe := cacheSchedule(0)
		for {
			select {
			case <-stop:
				return
			default:
				st.lookup(0, probe, probe.Fingerprint())
			}
		}
	}()
	for i := 0; i < 10*maxSearchConfigPerSample; i++ {
		sched := cacheSchedule(time.Duration(i) * time.Second)
		st.store(0, sched, sched.Fingerprint(), []float64{float64(i)})
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
