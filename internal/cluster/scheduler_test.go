package cluster

import (
	"testing"
	"time"

	"tempo/internal/workload"
)

// mkTrace builds a trace from jobs with a generous horizon.
func mkTrace(jobs ...workload.JobSpec) *workload.Trace {
	tr := &workload.Trace{Name: "test", Horizon: 1000 * time.Hour, Jobs: jobs}
	tr.Sort()
	return tr
}

func uniformTasks(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func cfg2(capacity int, a, b TenantConfig) Config {
	return Config{TotalContainers: capacity, Tenants: map[string]TenantConfig{"A": a, "B": b}}
}

func job(id, tenant string, submit time.Duration, nMaps int, mapDur time.Duration) workload.JobSpec {
	return workload.NewMapReduceJob(id, tenant, submit, uniformTasks(nMaps, mapDur), nil)
}

func findJob(t *testing.T, s *Schedule, id string) JobRecord {
	t.Helper()
	for _, j := range s.Jobs {
		if j.ID == id {
			return j
		}
	}
	t.Fatalf("job %s not in schedule", id)
	return JobRecord{}
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	tr := mkTrace(job("j", "A", 0, 4, 10*time.Second))
	s, err := Predict(tr, Config{TotalContainers: 2, Tenants: map[string]TenantConfig{"A": {Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	j := findJob(t, s, "j")
	if !j.Completed {
		t.Fatal("job did not complete")
	}
	// 4 tasks on 2 containers, 10s each → 2 waves → 20s.
	if j.Finish != 20*time.Second {
		t.Fatalf("finish = %v, want 20s", j.Finish)
	}
	if len(s.Tasks) != 4 {
		t.Fatalf("tasks = %d, want 4", len(s.Tasks))
	}
	for _, task := range s.Tasks {
		if task.Outcome != TaskFinished {
			t.Fatalf("task outcome = %v", task.Outcome)
		}
	}
}

func TestMapReduceStageOrdering(t *testing.T) {
	j := workload.NewMapReduceJob("mr", "A", 0,
		uniformTasks(2, 10*time.Second),
		uniformTasks(1, 5*time.Second))
	s, err := Predict(mkTrace(j), Config{TotalContainers: 4, Tenants: map[string]TenantConfig{"A": {Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	var mapEnd, redStart time.Duration
	for _, task := range s.Tasks {
		if task.Kind == workload.Map && task.End > mapEnd {
			mapEnd = task.End
		}
		if task.Kind == workload.Reduce {
			redStart = task.Start
		}
	}
	if redStart < mapEnd {
		t.Fatalf("reduce started at %v before maps finished at %v", redStart, mapEnd)
	}
	if got := findJob(t, s, "mr").Finish; got != 15*time.Second {
		t.Fatalf("finish = %v, want 15s", got)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	var jobs []workload.JobSpec
	for i := 0; i < 8; i++ {
		jobs = append(jobs, job(string(rune('a'+i)), "A", time.Duration(i)*time.Second, 5, 20*time.Second))
	}
	s, err := Predict(mkTrace(jobs...), Config{TotalContainers: 7, Tenants: map[string]TenantConfig{"A": {Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	assertCapacityRespected(t, s)
}

func assertCapacityRespected(t *testing.T, s *Schedule) {
	t.Helper()
	for _, p := range s.UsageTimeline("") {
		if p.Count > s.Capacity {
			t.Fatalf("usage %d exceeds capacity %d at %v", p.Count, s.Capacity, p.Time)
		}
		if p.Count < 0 {
			t.Fatalf("negative usage at %v", p.Time)
		}
	}
}

func TestWeightedSharesSplitCluster(t *testing.T) {
	// Both tenants saturate a 12-container cluster with weights 1:2.
	a := job("a", "A", 0, 200, 30*time.Second)
	b := job("b", "B", 0, 200, 30*time.Second)
	cfg := cfg2(12, TenantConfig{Weight: 1}, TenantConfig{Weight: 2})
	s, err := Predict(mkTrace(a, b), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-run, A should hold ~4 containers and B ~8.
	countAt := func(tenant string, at time.Duration) int {
		n := 0
		for _, task := range s.Tasks {
			if s.TenantNames[task.Tenant] == tenant && task.Start <= at && task.End > at {
				n++
			}
		}
		return n
	}
	at := 5 * time.Minute
	gotA, gotB := countAt("A", at), countAt("B", at)
	if gotA != 4 || gotB != 8 {
		t.Fatalf("allocation at %v = A:%d B:%d, want A:4 B:8", at, gotA, gotB)
	}
}

func TestUnusedQuotaFlowsToBusyTenant(t *testing.T) {
	// B has weight 3 but no work; A should take the whole cluster.
	a := job("a", "A", 0, 24, 10*time.Second)
	cfg := cfg2(12, TenantConfig{Weight: 1}, TenantConfig{Weight: 3})
	s, err := Predict(mkTrace(a), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := findJob(t, s, "a").Finish; got != 20*time.Second {
		t.Fatalf("finish = %v, want 20s (A should use all 12 containers)", got)
	}
}

func TestMaxShareCaps(t *testing.T) {
	// Paper §3.2 example: shares 1:2:3, C capped at 3 of 12 containers →
	// A=3, B=6, C=3.
	jobs := []workload.JobSpec{
		job("a", "A", 0, 100, time.Minute),
		job("b", "B", 0, 100, time.Minute),
		job("c", "C", 0, 100, time.Minute),
	}
	cfg := Config{TotalContainers: 12, Tenants: map[string]TenantConfig{
		"A": {Weight: 1},
		"B": {Weight: 2},
		"C": {Weight: 3, MaxShare: 3},
	}}
	s, err := Predict(mkTrace(jobs...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A grabs the whole cluster at t=0 (it submitted first and there is no
	// preemption); the configured split materializes once the first wave
	// of tasks completes at t=60s.
	at := 90 * time.Second
	counts := map[string]int{}
	for _, task := range s.Tasks {
		if task.Start <= at && task.End > at {
			counts[s.TenantNames[task.Tenant]]++
		}
	}
	if counts["A"] != 3 || counts["B"] != 6 || counts["C"] != 3 {
		t.Fatalf("allocation = %v, want A:3 B:6 C:3", counts)
	}
}

func TestMinShareGrantedFirst(t *testing.T) {
	// A floods the cluster first; B arrives with a min share. Without
	// preemption B cannot claw back running containers, but as soon as
	// containers free, B must be served before A despite A's huge weight.
	a := job("a", "A", 0, 40, 10*time.Second)
	b := job("b", "B", 5*time.Second, 4, 10*time.Second)
	cfg := cfg2(4, TenantConfig{Weight: 100}, TenantConfig{Weight: 1, MinShare: 2})
	s, err := Predict(mkTrace(a, b), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At t=10 the first wave of A finishes; B (below min share 2) must get
	// at least 2 containers.
	at := 11 * time.Second
	n := 0
	for _, task := range s.Tasks {
		if s.TenantNames[task.Tenant] == "B" && task.Start <= at && task.End > at {
			n++
		}
	}
	if n < 2 {
		t.Fatalf("B holds %d containers at %v, want >= 2 (min share)", n, at)
	}
}

func TestPreemptionFreesContainersForMinShare(t *testing.T) {
	// A grabs everything with long tasks; B has a min-share preemption
	// timeout. B's tasks must start before A's tasks would naturally end.
	a := job("a", "A", 0, 4, time.Hour)
	b := job("b", "B", time.Second, 2, time.Minute)
	cfg := cfg2(4,
		TenantConfig{Weight: 1},
		TenantConfig{Weight: 1, MinShare: 2, MinSharePreemptTimeout: 30 * time.Second})
	s, err := Predict(mkTrace(a, b), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PreemptionCount("A", nil); got != 2 {
		t.Fatalf("preempted A attempts = %d, want 2", got)
	}
	bRec := findJob(t, s, "b")
	if !bRec.Completed || bRec.Finish > 3*time.Minute {
		t.Fatalf("B finished at %v, want within ~91s", bRec.Finish)
	}
	// A's killed tasks restart and A still completes eventually.
	aRec := findJob(t, s, "a")
	if !aRec.Completed {
		t.Fatal("A never completed after preemption")
	}
	_, wasted := s.ContainerSeconds()
	if wasted <= 0 {
		t.Fatal("preemption should waste work")
	}
}

func TestNoPreemptionWithoutTimeout(t *testing.T) {
	a := job("a", "A", 0, 4, time.Hour)
	b := job("b", "B", time.Second, 2, time.Minute)
	cfg := cfg2(4, TenantConfig{Weight: 1}, TenantConfig{Weight: 1, MinShare: 2})
	s, err := Predict(mkTrace(a, b), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PreemptionCount("", nil); got != 0 {
		t.Fatalf("preemptions = %d, want 0 (no timeout configured)", got)
	}
	if got := findJob(t, s, "b").Finish; got < time.Hour {
		t.Fatalf("B finished at %v; it should have waited behind A", got)
	}
}

func TestSharePreemptionLevel(t *testing.T) {
	// Equal weights; A floods, B waits. B's share-level timeout should
	// trigger preemption up to B's fair share (half the cluster).
	a := job("a", "A", 0, 8, time.Hour)
	b := job("b", "B", time.Second, 8, time.Minute)
	cfg := cfg2(8,
		TenantConfig{Weight: 1},
		TenantConfig{Weight: 1, SharePreemptTimeout: time.Minute})
	s, err := Predict(mkTrace(a, b), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PreemptionCount("A", nil); got != 4 {
		t.Fatalf("preempted A attempts = %d, want 4 (B's fair share)", got)
	}
}

func TestPreemptedWorkIsLostAndRestarted(t *testing.T) {
	a := job("a", "A", 0, 1, time.Hour)
	b := job("b", "B", time.Second, 1, time.Minute)
	cfg := cfg2(1,
		TenantConfig{Weight: 1},
		TenantConfig{Weight: 1, MinShare: 1, MinSharePreemptTimeout: 10 * time.Second})
	s, err := Predict(mkTrace(a, b), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A's sole task is killed at ~11s, B runs 60s, then A restarts from
	// scratch and needs another full hour.
	aRec := findJob(t, s, "a")
	if !aRec.Completed {
		t.Fatal("A incomplete")
	}
	if aRec.Finish < time.Hour+time.Minute {
		t.Fatalf("A finished at %v; lost work should push it past 1h1m", aRec.Finish)
	}
	attempts := 0
	for _, task := range s.Tasks {
		if s.JobID(&task) == "a" {
			attempts++
		}
	}
	if attempts != 2 {
		t.Fatalf("A attempts = %d, want 2", attempts)
	}
}

func TestHorizonTruncation(t *testing.T) {
	a := job("a", "A", 0, 2, time.Hour)
	s, err := Run(mkTrace(a), Config{TotalContainers: 2, Tenants: map[string]TenantConfig{"A": {Weight: 1}}},
		Options{Horizon: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if s.Horizon != time.Minute {
		t.Fatalf("horizon = %v", s.Horizon)
	}
	if findJob(t, s, "a").Completed {
		t.Fatal("job should not have completed within horizon")
	}
	for _, task := range s.Tasks {
		if task.Outcome != TaskTruncated {
			t.Fatalf("outcome = %v, want truncated", task.Outcome)
		}
		if task.End != time.Minute {
			t.Fatalf("end = %v, want horizon", task.End)
		}
	}
}

func TestRunValidatesInputs(t *testing.T) {
	tr := mkTrace(job("a", "A", 0, 1, time.Second))
	if _, err := Predict(tr, Config{TotalContainers: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	bad := &workload.Trace{Jobs: []workload.JobSpec{{ID: "x"}}}
	if _, err := Predict(bad, Config{TotalContainers: 1}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestDeterminism(t *testing.T) {
	tr, err := workload.Generate(workload.CompanyABC(0.5), workload.GenerateOptions{Horizon: 2 * time.Hour, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TotalContainers: 40, Tenants: map[string]TenantConfig{}}
	for _, name := range tr.Tenants() {
		cfg.Tenants[name] = TenantConfig{Weight: 1, MinShare: 2, MinSharePreemptTimeout: time.Minute, SharePreemptTimeout: 5 * time.Minute}
	}
	run := func(seed int64) *Schedule {
		s, err := Run(tr, cfg, Options{Noise: DefaultNoise(seed), Horizon: 3 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := run(7), run(7)
	if len(s1.Tasks) != len(s2.Tasks) || len(s1.Jobs) != len(s2.Jobs) {
		t.Fatalf("nondeterministic sizes: %v vs %v", s1, s2)
	}
	for i := range s1.Tasks {
		if s1.Tasks[i] != s2.Tasks[i] {
			t.Fatalf("task %d differs: %+v vs %+v", i, s1.Tasks[i], s2.Tasks[i])
		}
	}
	s3 := run(8)
	same := len(s3.Tasks) == len(s1.Tasks)
	if same {
		diff := false
		for i := range s1.Tasks {
			if s1.Tasks[i] != s3.Tasks[i] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Fatal("different noise seeds produced identical schedules")
	}
}

func TestNoiseInjectsFailuresAndKills(t *testing.T) {
	tr, err := workload.Generate([]workload.TenantProfile{workload.BestEffort("A", 3)},
		workload.GenerateOptions{Horizon: 4 * time.Hour, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	noise := &NoiseModel{DurationSigma: 0.3, FailureProb: 0.05, JobKillProb: 0.05, Seed: 1}
	s, err := Run(tr, Config{TotalContainers: 30, Tenants: map[string]TenantConfig{"A": {Weight: 1}}},
		Options{Noise: noise, Horizon: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	failed, killed, kills := 0, 0, 0
	for _, task := range s.Tasks {
		switch task.Outcome {
		case TaskFailed:
			failed++
		case TaskKilled:
			killed++
		}
	}
	for _, j := range s.Jobs {
		if j.Killed {
			kills++
		}
	}
	if failed == 0 {
		t.Error("no failed attempts despite FailureProb")
	}
	if kills == 0 {
		t.Error("no killed jobs despite JobKillProb")
	}
	_ = killed
	assertCapacityRespected(t, s)
}

func TestKilledJobNeverCompletes(t *testing.T) {
	tr, err := workload.Generate([]workload.TenantProfile{workload.BestEffort("A", 3)},
		workload.GenerateOptions{Horizon: 3 * time.Hour, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	noise := &NoiseModel{JobKillProb: 0.2, Seed: 2}
	s, err := Run(tr, Config{TotalContainers: 20, Tenants: map[string]TenantConfig{"A": {Weight: 1}}},
		Options{Noise: noise, Horizon: 5 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	kills := 0
	for _, j := range s.Jobs {
		if j.Killed {
			kills++
			if j.Completed {
				t.Fatalf("job %s both killed and completed", j.ID)
			}
		}
	}
	if kills == 0 {
		t.Fatal("no kills with 20% kill probability")
	}
}

func TestScheduleAccessors(t *testing.T) {
	a := job("a", "A", 0, 2, 10*time.Second)
	b := job("b", "B", 0, 1, 10*time.Second)
	s, err := Predict(mkTrace(a, b), cfg2(4, TenantConfig{Weight: 1}, TenantConfig{Weight: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Tenants(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("Tenants = %v", got)
	}
	if got := s.JobsByTenant("A"); len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("JobsByTenant = %v", got)
	}
	if got := s.TasksByTenant("B"); len(got) != 1 {
		t.Fatalf("TasksByTenant = %v", got)
	}
	if rt := s.Jobs[0].ResponseTime(); rt != 10*time.Second {
		t.Fatalf("ResponseTime = %v", rt)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestWindowKeepsOnlyCompletedWithin(t *testing.T) {
	a := job("a", "A", 0, 1, 10*time.Second)            // completes at 10s
	b := job("b", "A", 5*time.Second, 1, time.Hour)     // completes way later
	c := job("c", "A", 2*time.Minute, 1, 1*time.Second) // submitted after window
	s, err := Predict(mkTrace(a, b, c), Config{TotalContainers: 4, Tenants: map[string]TenantConfig{"A": {Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	w := s.Window(0, time.Minute)
	if len(w.Jobs) != 1 || w.Jobs[0].ID != "a" {
		t.Fatalf("window jobs = %v, want only a", w.Jobs)
	}
	if len(w.Tasks) != 1 || w.JobID(&w.Tasks[0]) != "a" {
		t.Fatalf("window tasks = %v", w.Tasks)
	}
}

func TestUsageTimeline(t *testing.T) {
	a := job("a", "A", 0, 2, 10*time.Second)
	s, err := Predict(mkTrace(a), Config{TotalContainers: 2, Tenants: map[string]TenantConfig{"A": {Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	tl := s.UsageTimeline("A")
	if len(tl) != 2 {
		t.Fatalf("timeline = %v", tl)
	}
	if tl[0].Count != 2 || tl[1].Count != 0 {
		t.Fatalf("timeline counts = %v", tl)
	}
}

func TestContainerSeconds(t *testing.T) {
	a := job("a", "A", 0, 3, 10*time.Second)
	s, err := Predict(mkTrace(a), Config{TotalContainers: 3, Tenants: map[string]TenantConfig{"A": {Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	useful, wasted := s.ContainerSeconds()
	if useful != 30*time.Second || wasted != 0 {
		t.Fatalf("useful=%v wasted=%v", useful, wasted)
	}
}

func TestFigure1Scenario(t *testing.T) {
	// Reproduce Figure 1's story: A fills the cluster; B arrives just
	// after; with a preemption timeout of 1 unit B takes over at t=2 and
	// A's killed work is wasted.
	unit := time.Minute
	a := job("a", "A", 0, 10, 3*unit)
	b := job("b", "B", 1, 5, 2*unit) // arrives just after A
	cfg := cfg2(10,
		TenantConfig{Weight: 1},
		TenantConfig{Weight: 1, MinShare: 5, MinSharePreemptTimeout: unit})
	s, err := Predict(mkTrace(a, b), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PreemptionCount("A", nil); got != 5 {
		t.Fatalf("preempted = %d, want 5", got)
	}
	useful, wasted := s.ContainerSeconds()
	eff := float64(useful) / float64(useful+wasted)
	if eff >= 1 {
		t.Fatal("effective utilization should drop below 1 due to region I")
	}
	if eff < 0.5 {
		t.Fatalf("effective utilization %v implausibly low", eff)
	}
}
