package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/exp"
	"tempo/internal/qs"
	"tempo/internal/whatif"
	"tempo/internal/workload"
)

// traceCmd synthesizes a workload trace from the built-in statistical
// tenant profiles and writes it as JSON, ready for `tempoctl simulate` or
// the library's trace APIs. Mixes: abc (the six Company ABC tenants of
// Table 1), two-tenant (the deadline + best-effort pair of §8.2), ec2
// (Facebook + Cloudera mixes of the EC2 experiments), fb (Facebook-like
// single tenant), cloudera (Cloudera-like single tenant).
func traceCmd(args []string) error {
	fs := flag.NewFlagSet("tempoctl trace", flag.ExitOnError)
	var (
		mix   = fs.String("mix", "abc", "workload mix: abc, two-tenant, ec2, fb, cloudera")
		hours = fs.Float64("hours", 24, "trace horizon in hours")
		scale = fs.Float64("scale", 1.0, "arrival-rate scale factor")
		seed  = fs.Int64("seed", 1, "random seed")
		out   = fs.String("out", "", "output file (default stdout)")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError exits instead
	if *scale <= 0 {
		return fmt.Errorf("non-positive -scale %g", *scale)
	}
	var profiles []workload.TenantProfile
	switch *mix {
	case "abc":
		profiles = workload.CompanyABC(*scale)
	case "two-tenant":
		profiles = exp.TwoTenantProfiles(*scale)
	case "ec2":
		profiles = exp.EC2TwoTenantProfiles(*scale)
	case "fb":
		profiles = []workload.TenantProfile{workload.Facebook("fb", *scale)}
	case "cloudera":
		profiles = []workload.TenantProfile{workload.Cloudera("cloudera", *scale)}
	default:
		return fmt.Errorf("unknown mix %q", *mix)
	}
	trace, err := workload.Generate(profiles, workload.GenerateOptions{
		Horizon: time.Duration(*hours * float64(time.Hour)),
		Seed:    *seed,
		Name:    *mix,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %d jobs / %d tasks across %d tenants\n",
		len(trace.Jobs), trace.TaskCount(), len(trace.Tenants()))
	if *out == "" {
		return trace.WriteJSON(os.Stdout)
	}
	return trace.SaveFile(*out)
}

// simulateCmd runs the Schedule Predictor (or, with -noise, a noisy
// cluster emulation) over a JSON trace and reports the schedule summary
// plus QS metrics per tenant. With -compare it instead scores several RM
// configurations against the trace in one parallel what-if batch and
// prints a per-config QS table.
//
// When -config is omitted, every tenant runs with equal weight and no
// limits. An RM configuration file is the JSON form of the library's
// ClusterConfig:
//
//	{
//	  "total_containers": 80,
//	  "tenants": {
//	    "ETL": {"weight": 3, "min_share": 12, "max_share": 0,
//	            "share_preempt_timeout": 240000000000,
//	            "min_share_preempt_timeout": 45000000000}
//	  }
//	}
func simulateCmd(args []string) error {
	fs := flag.NewFlagSet("tempoctl simulate", flag.ExitOnError)
	var (
		tracePath = fs.String("trace", "", "input trace JSON (required)")
		cfgPath   = fs.String("config", "", "RM configuration JSON (optional)")
		capacity  = fs.Int("capacity", 80, "cluster capacity when -config is omitted")
		noise     = fs.Bool("noise", false, "emulate a noisy production run instead of predicting")
		seed      = fs.Int64("seed", 1, "noise seed")
		hours     = fs.Float64("horizon-hours", 0, "cap the run at this many hours (0 = run to completion)")
		outTasks  = fs.String("out-tasks", "", "write the task schedule as CSV to this file")
		outJobs   = fs.String("out-jobs", "", "write job outcomes as CSV to this file")
		compare   = fs.String("compare", "", "comma-separated RM config JSON files to score in one what-if batch")
		par       = fs.Int("parallelism", 0, "what-if workers for -compare (0 = one per CPU)")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError exits instead
	if *hours < 0 {
		return fmt.Errorf("negative -horizon-hours %g", *hours)
	}
	if *compare == "" {
		return simulate(*tracePath, *cfgPath, *capacity, *noise, *seed, *hours, *outTasks, *outJobs)
	}
	// The what-if batch is a deterministic prediction over the whole
	// trace: the single-run flags don't apply, and silently ignoring them
	// would misreport what was scored.
	var conflicts []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "config", "capacity", "noise", "seed", "out-tasks", "out-jobs":
			conflicts = append(conflicts, "-"+f.Name)
		}
	})
	if len(conflicts) > 0 {
		return fmt.Errorf("-compare cannot be combined with %s", strings.Join(conflicts, ", "))
	}
	return compareConfigs(*tracePath, strings.Split(*compare, ","), *hours, *par)
}

// compareConfigs scores every candidate RM configuration against the
// trace in one What-if batch — the library's parallel candidate-scoring
// hot path, exposed on the command line.
func compareConfigs(tracePath string, cfgPaths []string, hours float64, parallelism int) error {
	if tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	trace, err := workload.LoadFile(tracePath)
	if err != nil {
		return err
	}
	var cfgs []cluster.Config
	for _, path := range cfgPaths {
		path = strings.TrimSpace(path)
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var cfg cluster.Config
		if err := json.Unmarshal(raw, &cfg); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		cfgs = append(cfgs, cfg)
	}
	var templates []qs.Template
	tenants := trace.Tenants()
	for _, tn := range tenants {
		templates = append(templates,
			qs.Template{Queue: tn, Metric: qs.AvgResponseTime},
			qs.Template{Queue: tn, Metric: qs.DeadlineViolations, Slack: 0.25})
	}
	model, err := whatif.FromTrace(templates, trace)
	if err != nil {
		return err
	}
	model.Horizon = time.Duration(hours * float64(time.Hour))
	if parallelism <= 0 {
		parallelism = whatif.DefaultParallelism()
	}
	model.Parallelism = parallelism
	start := time.Now()
	rows, err := model.EvaluateBatch(cfgs)
	if err != nil {
		return err
	}
	fmt.Printf("scored %d configs x %d tenants in %s (parallelism %d)\n\n",
		len(cfgs), len(tenants), time.Since(start).Round(time.Millisecond), parallelism)
	fmt.Printf("%-24s", "config")
	for _, tn := range tenants {
		fmt.Printf("  %*s  %*s", len(tn)+7, tn+" AJR(s)", len(tn)+7, tn+" DLviol")
	}
	fmt.Println()
	for i, path := range cfgPaths {
		fmt.Printf("%-24s", strings.TrimSpace(path))
		for t, tn := range tenants {
			fmt.Printf("  %*.1f  %*.3f", len(tn)+7, rows[i][2*t], len(tn)+7, rows[i][2*t+1])
		}
		fmt.Println()
	}
	return nil
}

func simulate(tracePath, cfgPath string, capacity int, noise bool, seed int64, hours float64, outTasks, outJobs string) error {
	if tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	trace, err := workload.LoadFile(tracePath)
	if err != nil {
		return err
	}
	cfg := cluster.Config{TotalContainers: capacity, Tenants: map[string]cluster.TenantConfig{}}
	if cfgPath != "" {
		raw, err := os.ReadFile(cfgPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &cfg); err != nil {
			return fmt.Errorf("parsing %s: %w", cfgPath, err)
		}
	}
	opts := cluster.Options{Horizon: time.Duration(hours * float64(time.Hour))}
	if noise {
		opts.Noise = cluster.DefaultNoise(seed)
	}
	start := time.Now()
	sched, err := cluster.Run(trace, cfg, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Println(sched)
	if secs := elapsed.Seconds(); secs > 0 {
		fmt.Printf("simulated %d tasks in %s (%.0f tasks/sec)\n",
			len(sched.Tasks), elapsed.Round(time.Millisecond), float64(len(sched.Tasks))/secs)
	}
	end := sched.Horizon + time.Nanosecond
	fmt.Printf("\n%-12s %8s %10s %10s %8s %9s\n", "tenant", "jobs", "AJR(s)", "DLviol", "util", "preempted")
	for _, tenant := range sched.Tenants() {
		ajr := qs.Template{Queue: tenant, Metric: qs.AvgResponseTime}.Eval(sched, 0, end)
		dl := qs.Template{Queue: tenant, Metric: qs.DeadlineViolations, Slack: 0.25}.Eval(sched, 0, end)
		util := -qs.Template{Queue: tenant, Metric: qs.Utilization}.Eval(sched, 0, end)
		jobs := len(sched.JobsByTenant(tenant))
		fmt.Printf("%-12s %8d %10.1f %10.3f %8.3f %9d\n",
			tenant, jobs, ajr, dl, util, sched.PreemptionCount(tenant, nil))
	}
	if outTasks != "" {
		if err := writeCSV(outTasks, sched.WriteTasksCSV); err != nil {
			return err
		}
	}
	if outJobs != "" {
		if err := writeCSV(outJobs, sched.WriteJobsCSV); err != nil {
			return err
		}
	}
	return nil
}

func writeCSV(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
