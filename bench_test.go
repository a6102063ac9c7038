package tempo

// This file is the benchmark harness of deliverable (d):
// BenchmarkExperiments regenerates every table, figure and ablation of the
// paper's evaluation (§8) from the internal/exp registry, prints each
// rendering once (so `go test -bench . -benchmem` output contains every
// reproduced artifact), and reports each entry's headline quantities as
// benchmark metrics. The other benchmarks here measure the hot paths.
//
// Absolute values come from the emulated substrate; EXPERIMENTS.md records
// the paper-vs-measured comparison for every entry.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/exp"
	"tempo/internal/qs"
	"tempo/internal/scenario"
	"tempo/internal/workload"
)

// benchSeed keeps all benchmark experiments reproducible. loopSeed is used
// for the control-loop experiments in loopSeeded: it selects a
// representative contended workload draw where the deadline SLO actually
// binds (seeds are just workload draws; uncontended draws leave the
// optimizer nothing to do).
const (
	benchSeed = 42
	loopSeed  = 9
)

var loopSeeded = map[string]bool{"figure6": true, "strategies": true, "guard": true}

var printOnce sync.Map

// printResult renders an experiment's output exactly once per benchmark.
func printResult(name, rendered string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", name, rendered)
	}
}

// BenchmarkExperiments runs every exp.Experiments entry with its default
// iteration count, one sub-benchmark each. The numbers themselves are
// pinned at seed 42 by internal/exp's TestExperimentsGolden.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range exp.Experiments {
		seed := int64(benchSeed)
		if loopSeeded[e.Name] {
			seed = loopSeed
		}
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := e.Run(seed, 0)
				if err != nil {
					b.Fatal(err)
				}
				printResult(e.Name, res.Render())
				for name, v := range res.Metrics() {
					b.ReportMetric(v, name)
				}
			}
		})
	}
}

// BenchmarkSchedulePredictorThroughput measures the predictor's task
// throughput (§8.1 reports ≈150k tasks/sec on the authors' machine).
func BenchmarkSchedulePredictorThroughput(b *testing.B) {
	trace, err := exp.ABCTrace(24*time.Hour, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	cfg := scenario.ExpertABCConfig(exp.ABCCapacity)
	tasks := trace.TaskCount()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Predict(trace, cfg); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(tasks*b.N)/elapsed, "tasks/sec")
	}
}

// BenchmarkWhatIfBatch measures the what-if candidate-scoring hot path of
// one control-loop iteration — the current configuration plus a PALD-sized
// candidate set scored in one EvaluateBatch — at several worker counts.
// The QS vectors are bit-identical across all of them (asserted here);
// only wall-clock time changes.
func BenchmarkWhatIfBatch(b *testing.B) {
	trace, err := exp.ABCTrace(2*time.Hour, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	templates := []Template{
		Template{Queue: "ETL", Metric: DeadlineViolations, Slack: 0.25}.WithTarget(0.05),
		{Queue: "BI", Metric: AvgResponseTime},
	}
	model, err := NewWhatIfFromTrace(templates, trace)
	if err != nil {
		b.Fatal(err)
	}
	// One base config plus seven candidates: weight/min-share variations of
	// the expert configuration, the shape PALD proposes each iteration.
	base := scenario.ExpertABCConfig(exp.ABCCapacity)
	cfgs := []ClusterConfig{base}
	for i := 1; i < 8; i++ {
		cand := base.Clone()
		etl := cand.Tenants["ETL"]
		etl.Weight = 1 + 0.5*float64(i)
		cand.Tenants["ETL"] = etl
		bi := cand.Tenants["BI"]
		bi.MaxShare = 8 + 4*i
		cand.Tenants["BI"] = bi
		cfgs = append(cfgs, cand)
	}
	model.Parallelism = 1
	want, err := model.EvaluateBatch(cfgs)
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			model.Parallelism = par
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := model.EvaluateBatch(cfgs)
				if err != nil {
					b.Fatal(err)
				}
				for c := range want {
					for k := range want[c] {
						if got[c][k] != want[c][k] {
							b.Fatalf("parallelism %d: row %d differs: %v vs %v", par, c, got[c], want[c])
						}
					}
				}
			}
		})
	}

	// Allocation ceilings for the batch path: the pooled default against
	// the same batch scored through fresh, single-use Sims — the cost
	// the pre-pooling code paid per run and a custom Predictor still pays
	// today. Sequential workers so MemStats deltas are attributable.
	model.Parallelism = 1
	allocs, bytes := measureAllocs(3, func() {
		if _, err := model.EvaluateBatch(cfgs); err != nil {
			b.Fatal(err)
		}
	})
	unpooled := *model
	unpooled.Parallelism = 1
	unpooled.Predict = func(trace *workload.Trace, cfg cluster.Config, horizon time.Duration) (*cluster.Schedule, error) {
		sm := cluster.NewSim() // fresh buffers per run: nothing is recycled
		sched, err := sm.RunInto(trace, cfg, cluster.Options{Horizon: horizon})
		sm.Detach()
		return sched, err
	}
	allocsUnpooled, bytesUnpooled := measureAllocs(3, func() {
		if _, err := unpooled.EvaluateBatch(cfgs); err != nil {
			b.Fatal(err)
		}
	})
	checkCeiling(b, "allocs_per_op", allocs, 117)
	checkCeiling(b, "bytes_per_op", bytes, 32_194)
	checkCeiling(b, "allocs_per_op_unpooled", allocsUnpooled, 1_565)
	checkCeiling(b, "bytes_per_op_unpooled", bytesUnpooled, 4_001_247)
	if reduction := allocsUnpooled / math.Max(allocs, 1); reduction < 10 {
		b.Fatalf("pooling saves only %.2fx allocations per batch (%.0f pooled vs %.0f unpooled), want >= 10x",
			reduction, allocs, allocsUnpooled)
	}
	b.ReportMetric(allocs, "pooled-allocs/batch")
	b.ReportMetric(allocsUnpooled, "unpooled-allocs/batch")
}

// count is one deterministic output of a benchmark beside the value
// committed for it.
type count struct {
	name      string
	got, want int
}

// checkCounts fails b unless every count equals its committed value. The
// benchmark fixtures are seeded, so any drift is a behaviour change, not
// noise; re-commit a value only when the change is intended.
func checkCounts(b *testing.B, counts ...count) {
	b.Helper()
	for _, c := range counts {
		if c.got != c.want {
			b.Errorf("%s = %d, committed value %d", c.name, c.got, c.want)
		}
	}
	if b.Failed() {
		b.FailNow()
	}
}

// checkCeiling fails b if an allocation metric exceeds its ceiling: the
// value measured when the hot path last changed on purpose, plus 25%.
// Allocation counts of a deterministic computation barely move between
// machines, so crossing the ceiling means the path churns the heap again.
func checkCeiling(b *testing.B, name string, got, ceiling float64) {
	b.Helper()
	if got > ceiling {
		b.Fatalf("%s = %.0f, ceiling %.0f", name, got, ceiling)
	}
}

// checkStressShape pins the stress fixture's shape, so a change to the
// fixture is not mistaken for a change in the cost of scoring it.
func checkStressShape(b *testing.B, sched *cluster.Schedule, templates []Template) {
	b.Helper()
	checkCounts(b,
		count{"templates", len(templates), 4002},
		count{"jobs", len(sched.Jobs), 712},
		count{"tasks", len(sched.Tasks), 18073},
	)
}

// stressFixture is the shared large-tenant evaluation workload: the
// committed stress-1000 scenario's tenant mix played for two hours through
// the emulator, scored under a production-shaped SLO set — response time,
// throughput, deadline violations, and a fairness share per tenant, plus
// the cluster-wide SLOs. Per-tenant fairness is the oracle's worst case
// (two full task-schedule scans per template); the incremental path
// answers it from two prefix-integral lookups.
type stressFixture struct {
	sched     *cluster.Schedule
	templates []Template
	err       error
}

var stressOnce struct {
	sync.Once
	f stressFixture
}

func stressEvalFixture() (*cluster.Schedule, []Template, error) {
	stressOnce.Do(func() {
		spec, err := scenario.LoadFile("internal/scenario/testdata/scenarios/stress-1000.json")
		if err != nil {
			stressOnce.f.err = err
			return
		}
		rt, err := scenario.Build(spec, scenario.Options{Parallelism: 1})
		if err != nil {
			stressOnce.f.err = err
			return
		}
		horizon := 2 * time.Hour
		trace, err := workload.Generate(rt.Profiles, workload.GenerateOptions{
			Horizon: horizon,
			Seed:    spec.Seed + 1,
			Name:    "stress-bench",
		})
		if err != nil {
			stressOnce.f.err = err
			return
		}
		sched, err := cluster.Run(trace, rt.Initial, cluster.Options{Horizon: horizon})
		if err != nil {
			stressOnce.f.err = err
			return
		}
		names := spec.TenantNames()
		templates := []Template{
			{Metric: Utilization},
			{Metric: Throughput},
		}
		for _, tenant := range names {
			templates = append(templates,
				Template{Queue: tenant, Metric: AvgResponseTime},
				Template{Queue: tenant, Metric: Throughput},
				Template{Queue: tenant, Metric: DeadlineViolations, Slack: 0.25},
				Template{Queue: tenant, Metric: Fairness, DesiredShare: 1 / float64(len(names))},
			)
		}
		stressOnce.f = stressFixture{sched: sched, templates: templates}
	})
	return stressOnce.f.sched, stressOnce.f.templates, stressOnce.f.err
}

// minDuration returns the fastest of reps timed runs of fn — single-shot
// CI runs (-benchtime=1x) are noisy, and the minimum is the stable
// estimator of a deterministic computation's cost. Each run starts from a
// fresh GC, so no run pays for garbage an earlier one left behind.
func minDuration(reps int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// measureAllocs runs fn reps times and returns the mean heap allocations
// and bytes per run, from runtime.MemStats deltas. Unlike
// testing.AllocsPerRun it also reports bytes and does not pin GOMAXPROCS;
// the evaluated paths are deterministic, so the counts are stable enough
// to hold under a fixed ceiling (checkCeiling).
func measureAllocs(reps int, fn func()) (allocsPerOp, bytesPerOp float64) {
	fn() // warm caches and pools so steady state is what's measured
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(reps)
}

// BenchmarkQSIncremental pits the incremental QS path against the
// full-recompute oracle on the stress tier: a 1000-tenant schedule scored
// under ~4000 templates, the shape the paper's handful-of-tenants protocol
// never reaches. It fails outright if the incremental path is less than
// 36.2x faster or if its allocations cross their ceilings. The two paths' QS vectors must be bit-identical on the full
// window.
func BenchmarkQSIncremental(b *testing.B) {
	sched, templates, err := stressEvalFixture()
	if err != nil {
		b.Fatal(err)
	}
	checkStressShape(b, sched, templates)
	end := sched.Horizon + time.Nanosecond
	want := qs.EvalAll(templates, sched, 0, end)
	got := qs.EvalStream(templates, sched, 0, end)
	for i := range want {
		if got[i] != want[i] {
			b.Fatalf("objective %d (%s): incremental %v != oracle %v", i, templates[i].Name(), got[i], want[i])
		}
	}
	// The speedup is the median ratio of five interleaved oracle and
	// incremental timings, so a slow phase of a shared machine slows both
	// sides of a pair instead of one side of the whole comparison.
	ratios := make([]float64, 5)
	for r := range ratios {
		oracleNs := minDuration(1, func() { qs.EvalAll(templates, sched, 0, end) })
		incrNs := minDuration(3, func() { qs.EvalStream(templates, sched, 0, end) })
		ratios[r] = float64(oracleNs) / float64(incrNs)
	}
	slices.Sort(ratios)
	speedup := ratios[len(ratios)/2]
	if speedup < 36.2 {
		b.Fatalf("incremental evaluation is only %.2fx faster than the full-recompute oracle (pairs %.2f), want >= 36.2x",
			speedup, ratios)
	}
	allocs, bytes := measureAllocs(3, func() { qs.EvalStream(templates, sched, 0, end) })
	checkCeiling(b, "allocs_per_op", allocs, 110)
	checkCeiling(b, "bytes_per_op", bytes, 1_383_980)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qs.EvalStream(templates, sched, 0, end)
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkQSCutoverSweep is the measurement qs.streamCutover is set from:
// the first observed schedule of each bench/ workload fixture, scored whole
// by the oracle and by a fresh accumulator under k templates drawn evenly
// from the fixture's own SLO list. EXPERIMENTS.md ("The QS cutover") has
// the recorded table and how to rerun it.
func BenchmarkQSCutoverSweep(b *testing.B) {
	for _, fx := range []struct {
		name string
		ks   []int
	}{
		{"small", []int{2}},
		{"medium", []int{2}},
		{"stress", []int{2, 4, 8, 12, 16, 24, 32, 64, 96, 104, 112, 120, 128, 136, 173}},
	} {
		spec, err := scenario.LoadFile("bench/workloads/" + fx.name + ".json")
		if err != nil {
			b.Fatal(err)
		}
		rt, err := scenario.Build(spec, scenario.Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Step(); err != nil {
			b.Fatal(err)
		}
		sched := rt.ObservedSchedule(0)
		end := sched.Horizon + time.Nanosecond
		for _, k := range fx.ks {
			templates := make([]Template, k)
			for i := range templates {
				templates[i] = rt.Templates[i*len(rt.Templates)/k]
			}
			name := fmt.Sprintf("%s/tasks=%d/k=%d", fx.name, len(sched.Tasks), k)
			b.Run(name+"/oracle", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					qs.EvalAll(templates, sched, 0, end)
				}
			})
			b.Run(name+"/accumulator", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					qs.Accumulate(templates, sched).Values(0, end)
				}
			})
		}
	}
}

// BenchmarkStressScenario runs the committed stress-tier scenarios end to
// end (workload synthesis, emulation, incremental QS, canonical report) —
// the wall-clock envelope of the large-tenant regression fixtures. The
// reported job count is not checked here: TestGoldenScenarios pins both
// reports, job counts included, byte for byte.
func BenchmarkStressScenario(b *testing.B) {
	for _, name := range []string{"stress-100", "stress-1000"} {
		name := name
		b.Run(name, func(b *testing.B) {
			spec, err := scenario.LoadFile("internal/scenario/testdata/scenarios/" + name + ".json")
			if err != nil {
				b.Fatal(err)
			}
			var jobs int
			for i := 0; i < b.N; i++ {
				rep, err := scenario.Run(spec, scenario.Options{Parallelism: DefaultParallelism()})
				if err != nil {
					b.Fatal(err)
				}
				jobs = 0
				for _, it := range rep.Iterations {
					jobs += it.SubmittedJobs
				}
			}
			b.ReportMetric(float64(jobs), "jobs")
		})
	}
}

// BenchmarkWorkloadGeneration measures the synthetic trace generator.
func BenchmarkWorkloadGeneration(b *testing.B) {
	profiles := workload.CompanyABC(1)
	for i := 0; i < b.N; i++ {
		tr, err := workload.Generate(profiles, workload.GenerateOptions{Horizon: 8 * time.Hour, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tr.TaskCount()), "tasks")
	}
}
