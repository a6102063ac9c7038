package tempo_test

import (
	"fmt"
	"time"

	"tempo"
)

// ExamplePredict shows the fast Schedule Predictor on a hand-built trace:
// two tenants share four containers under 2:1 weights.
func ExamplePredict() {
	trace := &tempo.Trace{
		Name:    "demo",
		Horizon: time.Hour,
		Jobs: []tempo.JobSpec{
			tempo.NewMapReduceJob("etl-1", "etl", 0,
				[]time.Duration{60 * time.Second, 60 * time.Second}, // 2 maps
				[]time.Duration{30 * time.Second}),                  // 1 reduce
			tempo.NewMapReduceJob("adhoc-1", "adhoc", 0,
				[]time.Duration{45 * time.Second}, nil),
		},
	}
	trace.Sort()
	cfg := tempo.ClusterConfig{
		TotalContainers: 4,
		Tenants: map[string]tempo.TenantConfig{
			"etl":   {Weight: 2},
			"adhoc": {Weight: 1},
		},
	}
	sched, err := tempo.Predict(trace, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, j := range sched.Jobs {
		fmt.Printf("%s finished at %s\n", j.ID, j.Finish)
	}
	// Output:
	// adhoc-1 finished at 45s
	// etl-1 finished at 1m30s
}

// ExampleTemplate_Eval evaluates QS metrics over a schedule: the loss
// functions Tempo minimizes.
func ExampleTemplate_Eval() {
	trace := &tempo.Trace{
		Horizon: time.Hour,
		Jobs: []tempo.JobSpec{
			tempo.NewMapReduceJob("j1", "etl", 0, []time.Duration{100 * time.Second}, nil),
			tempo.NewMapReduceJob("j2", "etl", 0, []time.Duration{200 * time.Second}, nil),
		},
	}
	trace.Jobs[0].Deadline = 90 * time.Second  // will be missed (needs 100s)
	trace.Jobs[1].Deadline = 300 * time.Second // comfortably met
	trace.Sort()
	sched, _ := tempo.Predict(trace, tempo.ClusterConfig{TotalContainers: 2})

	ajr := tempo.Template{Queue: "etl", Metric: tempo.AvgResponseTime}
	dl := tempo.Template{Queue: "etl", Metric: tempo.DeadlineViolations}
	forgiving := tempo.Template{Queue: "etl", Metric: tempo.DeadlineViolations, Slack: 0.25}
	end := sched.Horizon + time.Nanosecond
	fmt.Printf("QS_AJR = %.0f seconds\n", ajr.Eval(sched, 0, end))
	fmt.Printf("QS_DL  = %.2f\n", dl.Eval(sched, 0, end))
	fmt.Printf("QS_DL (25%% slack) = %.2f\n", forgiving.Eval(sched, 0, end))
	// Output:
	// QS_AJR = 150 seconds
	// QS_DL  = 0.50
	// QS_DL (25% slack) = 0.00
}

// ExampleGenerate synthesizes a workload from a statistical tenant profile
// — the Workload Generator of Tempo's What-if Model.
func ExampleGenerate() {
	profile := tempo.TenantProfile{
		Name:        "batch",
		JobsPerHour: 10,
		NumMaps:     tempo.Constant(4),
		MapSeconds:  tempo.Constant(30),
	}
	trace, err := tempo.Generate([]tempo.TenantProfile{profile},
		tempo.GenerateOptions{Horizon: 2 * time.Hour, Seed: 7})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("deterministic for a given seed: %d jobs, %d tasks each\n",
		len(trace.Jobs), trace.Jobs[0].TaskCount())
	// Output:
	// deterministic for a given seed: 25 jobs, 4 tasks each
}

// ExampleClusterConfig_WithSubTenants splits one queue into size-class
// sub-queues (the §10 hierarchical-tenant workaround).
func ExampleClusterConfig_WithSubTenants() {
	cfg := tempo.ClusterConfig{
		TotalContainers: 40,
		Tenants: map[string]tempo.TenantConfig{
			"analytics": {Weight: 2, MinShare: 10},
		},
	}
	split := cfg.WithSubTenants("analytics", []string{"analytics/small", "analytics/large"})
	for _, name := range []string{"analytics/small", "analytics/large"} {
		tc := split.Tenants[name]
		fmt.Printf("%s: weight %.1f, min %d\n", name, tc.Weight, tc.MinShare)
	}
	// Output:
	// analytics/small: weight 1.0, min 5
	// analytics/large: weight 1.0, min 5
}

// ExampleNewController declares SLOs for two tenants, observes an emulated
// cluster, and lets the control loop tune the Resource Manager.
func ExampleNewController() {
	// 1. Describe the tenants' workloads. In production this is recorded
	// history; here the library's statistical profiles stand in: a
	// deadline-driven ETL-like tenant and a best-effort analyst tenant.
	abc := tempo.CompanyABC(0.8)
	profiles := []tempo.TenantProfile{abc[5] /* ETL */, abc[0] /* BI */}

	// 2. Declare the SLOs with QS templates: at most 5% of ETL jobs may
	// miss their deadlines (with 25% slack), and BI's average response
	// time should be as low as possible (best-effort: no fixed target).
	templates := []tempo.Template{
		tempo.Template{Queue: "ETL", Metric: tempo.DeadlineViolations, Slack: 0.25}.WithTarget(0.05),
		{Queue: "BI", Metric: tempo.AvgResponseTime},
	}

	// 3. Record one interval of workload to replay in the What-if Model.
	const interval = time.Hour
	trace, err := tempo.Generate(profiles, tempo.GenerateOptions{Horizon: interval, Seed: 7})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	model, err := tempo.NewWhatIfFromTrace(templates, trace)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	model.Horizon = interval
	// Candidate scoring fans out over all CPUs; results are identical to
	// sequential evaluation, it just converges in less wall-clock time.
	model.Parallelism = tempo.DefaultParallelism()

	// 4. The starting RM configuration a DBA might write: protect ETL,
	// cap BI hard.
	const capacity = 40
	initial := tempo.ClusterConfig{
		TotalContainers: capacity,
		Tenants: map[string]tempo.TenantConfig{
			"ETL": {Weight: 3, MinShare: 16, MinSharePreemptTimeout: time.Minute},
			"BI":  {Weight: 1, MaxShare: 8},
		},
	}

	// 5. Wire the control loop.
	ctl, err := tempo.NewController(tempo.ControllerConfig{
		Space:      tempo.DefaultSpace(capacity, []string{"ETL", "BI"}),
		Templates:  templates,
		Model:      model,
		Candidates: 5,
	}, initial)
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	// 6. Run a few control-loop iterations and watch the SLOs. Each
	// interval a noisy emulated cluster replays the same workload under
	// the current RM configuration; Apply takes the observed schedule.
	fmt.Println("iter  ETL deadline-miss  BI avg response (s)")
	for i := 0; i < 8; i++ {
		sched, err := tempo.Run(trace, ctl.Current(), tempo.RunOptions{
			Horizon: interval,
			Noise:   tempo.DefaultNoise(11 + int64(i)*3571),
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		it, err := ctl.Apply(sched)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		marker := ""
		if it.Switched {
			marker = "  <- new RM config"
		}
		if it.Reverted {
			marker = "  <- reverted"
		}
		fmt.Printf("%4d  %17.3f  %19.1f%s\n", it.Index, it.Observed[0], it.Observed[1], marker)
	}
	final := ctl.Current()
	fmt.Println("final RM configuration:")
	for _, name := range []string{"ETL", "BI"} {
		tc := final.Tenant(name)
		fmt.Printf("  %-4s weight=%.2f min=%d max=%d\n", name, tc.Weight, tc.MinShare, tc.MaxShare)
	}
	// Output:
	// iter  ETL deadline-miss  BI avg response (s)
	//    0              0.000                403.8  <- new RM config
	//    1              0.000                431.8  <- reverted
	//    2              0.000                400.5  <- new RM config
	//    3              0.000                374.0  <- new RM config
	//    4              0.000                444.1  <- reverted
	//    5              0.000                420.3  <- new RM config
	//    6              0.000                388.5  <- new RM config
	//    7              0.000                355.0  <- new RM config
	// final RM configuration:
	//   ETL  weight=2.93 min=14 max=40
	//   BI   weight=3.56 min=3 max=24
}

// ExampleDecomposeTenant demonstrates the paper's §10 extension: a tenant
// whose workload mixes very different job classes (ad-hoc small queries
// and huge periodic batch jobs on the same queue) is decomposed into
// size-class sub-queues, so Tempo can attach fine-grained SLOs and the RM
// stops making small jobs wait behind monsters.
func ExampleDecomposeTenant() {
	const capacity = 32
	// One queue carrying two very different populations.
	mixed := tempo.TenantProfile{
		Name:        "analytics",
		JobsPerHour: 130,
		NumMaps: tempo.Mixture{
			Weights: []float64{0.8, 0.2},
			Components: []tempo.Dist{
				tempo.Clamped{D: tempo.LognormalFromMean(3, 0.5), Lo: 1, Hi: 8},     // small ad-hoc
				tempo.Clamped{D: tempo.LognormalFromMean(80, 0.6), Lo: 40, Hi: 300}, // big batch
			},
		},
		MapSeconds: tempo.Mixture{
			Weights: []float64{0.8, 0.2},
			Components: []tempo.Dist{
				tempo.Clamped{D: tempo.LognormalFromMean(15, 0.5), Lo: 2, Hi: 60},
				tempo.Clamped{D: tempo.LognormalFromMean(120, 0.5), Lo: 60, Hi: 600},
			},
		},
	}
	trace, err := tempo.Generate([]tempo.TenantProfile{mixed},
		tempo.GenerateOptions{Horizon: 2 * time.Hour, Seed: 5})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("mixed queue: %d jobs / %d tasks\n", len(trace.Jobs), trace.TaskCount())
	cfg := tempo.ClusterConfig{
		TotalContainers: capacity,
		Tenants:         map[string]tempo.TenantConfig{"analytics": {Weight: 1}},
	}
	// Baseline: one FIFO-within-tenant queue.
	before, err := tempo.Predict(trace, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	// Decompose into two size classes and split the queue's RM entry,
	// giving the small class a latency-protecting floor.
	decomposed, dec, err := tempo.DecomposeTenant(trace, "analytics", 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	split := cfg.WithSubTenants("analytics", dec.SubTenants)
	small := split.Tenants[dec.SubTenants[0]]
	small.MinShare = capacity / 4
	small.MinSharePreemptTimeout = 30 * time.Second
	split.Tenants[dec.SubTenants[0]] = small
	after, err := tempo.Predict(decomposed, split)
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	report := func(label string, s *tempo.Schedule) {
		var sum [2]time.Duration
		var n [2]int
		for _, j := range s.Jobs {
			if j.Completed {
				class := dec.Assignment[j.ID]
				sum[class] += j.Finish - j.Submit
				n[class]++
			}
		}
		fmt.Printf("%-18s small-class AJR %6s (%d jobs)  big-class AJR %6s (%d jobs)\n", label,
			(sum[0] / time.Duration(max(n[0], 1))).Round(time.Second), n[0],
			(sum[1] / time.Duration(max(n[1], 1))).Round(time.Second), n[1])
	}
	fmt.Printf("size classes: %v (log10-work centers %.2f / %.2f)\n",
		dec.SubTenants, dec.Centers[0], dec.Centers[1])
	report("single queue:", before)
	report("decomposed queues:", after)
	// Output:
	// mixed queue: 273 jobs / 5650 tasks
	// size classes: [analytics/size0 analytics/size1] (log10-work centers 1.85 / 3.45)
	// single queue:      small-class AJR  4m34s (219 jobs)  big-class AJR  8m58s (54 jobs)
	// decomposed queues: small-class AJR  1m12s (219 jobs)  big-class AJR  9m23s (54 jobs)
}
