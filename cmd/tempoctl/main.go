// Command tempoctl is Tempo's command line: it runs control loops and
// declarative scenarios, regenerates the paper's experiments, generates
// and simulates workload traces, load-tests a tempod and queries one.
//
// Usage:
//
//	tempoctl [run] -mix ec2 -capacity 48 -iterations 15 -interval 1h \
//	         -deadline-slack 0.25 -deadline-target 0.05
//	tempoctl run -spec internal/scenario/testdata/scenarios/flash-crowd.json [-report out.json]
//	tempoctl run -dir internal/scenario/testdata/scenarios [-quiet]
//	tempoctl experiments [-run figure6,figure11] [-seed 7] [-iters 20]
//	tempoctl trace -mix abc -hours 24 -scale 0.5 -seed 1 -out trace.json
//	tempoctl simulate -trace trace.json [-config rm.json] [-noise] [-seed 7]
//	tempoctl simulate -trace trace.json -compare a.json,b.json [-parallelism 8]
//	tempoctl load -clusters 100 [-json]
//	tempoctl query -addr http://localhost:8080 -cluster c1 -plan plan.json [-stream]
//
// Without a subcommand, tempoctl runs. Every subcommand's -h lists its
// flags; a flag that would be silently ignored is an error instead.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/core"
	"tempo/internal/exp"
	"tempo/internal/pald"
	"tempo/internal/scenario"
)

var subcommands = map[string]func(args []string) error{
	"run":         runCmd,
	"experiments": experimentsCmd,
	"trace":       traceCmd,
	"simulate":    simulateCmd,
	"load":        loadCmd,
	"query":       runQuery,
}

func main() {
	name, args := "run", os.Args[1:]
	if len(args) > 0 && subcommands[args[0]] != nil {
		name, args = args[0], args[1:]
	}
	if err := subcommands[name](args); err != nil {
		fmt.Fprintf(os.Stderr, "tempoctl: %s: %v\n", name, err)
		os.Exit(1)
	}
}

// runCmd is `tempoctl run`. With -spec or -dir it runs scenario specs
// (see internal/scenario and the README for the format) and prints their
// canonical reports, which are byte-identical for any -parallelism.
// Otherwise its flags build a two-tenant spec that starts from a
// deliberately skewed "expert" configuration, and it prints, per
// iteration, the observed QS metrics, whether a new RM configuration was
// adopted, and whether the revert guard rolled one back.
func runCmd(args []string) error {
	fs := flag.NewFlagSet("tempoctl run", flag.ExitOnError)
	var (
		mix         = fs.String("mix", "ec2", "workload mix: ec2 or two-tenant")
		capacity    = fs.Int("capacity", 48, "cluster capacity in containers")
		scale       = fs.Float64("scale", 2.2, "arrival-rate scale")
		iterations  = fs.Int("iterations", 15, "control-loop iterations")
		interval    = fs.Duration("interval", time.Hour, "control interval L")
		slack       = fs.Float64("deadline-slack", 0.25, "QS_DL slack γ")
		dlTarget    = fs.Float64("deadline-target", 0.0, "deadline-violation target r")
		seed        = fs.Int64("seed", 42, "random seed")
		candidates  = fs.Int("candidates", 5, "candidate configurations per loop")
		strategy    = fs.String("strategy", "pald", "optimizer: pald, weighted-sum, random")
		parallelism = fs.Int("parallelism", 0, "what-if worker count (0 = one per CPU); results are identical for any value")
		specPath    = fs.String("spec", "", "scenario spec JSON to run")
		dir         = fs.String("dir", "", "run every *.json spec in this directory (golden files are skipped)")
		reportPath  = fs.String("report", "", "write the canonical report JSON here (-spec only)")
		quiet       = fs.Bool("quiet", false, "suppress the per-iteration table (-spec or -dir only)")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError exits instead
	var built, fileOnly []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "spec", "dir", "parallelism":
		case "report", "quiet":
			fileOnly = append(fileOnly, "-"+f.Name)
		default:
			built = append(built, "-"+f.Name)
		}
	})
	switch {
	case *specPath == "" && *dir == "":
		if len(fileOnly) > 0 {
			return fmt.Errorf("%s requires -spec or -dir", strings.Join(fileOnly, ", "))
		}
		return runFlags(*mix, *capacity, *scale, *iterations, *interval, *slack, *dlTarget, *seed, *candidates, *strategy, *parallelism)
	case *specPath != "" && *dir != "":
		return errors.New("-spec and -dir cannot be combined")
	case len(built) > 0:
		return fmt.Errorf("-spec and -dir cannot be combined with %s", strings.Join(built, ", "))
	case *reportPath != "" && *dir != "":
		return errors.New("-report requires -spec")
	}
	paths := []string{*specPath}
	if *dir != "" {
		all, err := filepath.Glob(filepath.Join(*dir, "*.json"))
		if err != nil {
			return err
		}
		paths = paths[:0]
		for _, p := range all {
			if !strings.HasSuffix(p, ".golden.json") {
				paths = append(paths, p)
			}
		}
		sort.Strings(paths)
		if len(paths) == 0 {
			return fmt.Errorf("no scenario specs in %s", *dir)
		}
	}
	for _, p := range paths {
		if err := runSpec(p, *parallelism, *reportPath, *quiet); err != nil {
			return err
		}
	}
	return nil
}

func runFlags(mix string, capacity int, scale float64, iterations int, interval time.Duration, slack, dlTarget float64, seed int64, candidates int, strategyName string, parallelism int) error {
	spec := exp.TwoTenantSpec(seed, slack, interval, iterations)
	switch mix {
	case "ec2":
		spec.Tenants = exp.EC2Mix(scale)
	case "two-tenant":
		spec.Tenants = exp.TwoTenantMix(scale)
	default:
		return fmt.Errorf("unknown mix %q", mix)
	}
	spec.Name = "tempoctl"
	spec.Capacity = capacity
	spec.SLOs[0].Target = &dlTarget
	spec.Controller.Candidates = candidates
	var strategy pald.Strategy
	var err error
	space := cluster.DefaultSpace(capacity, spec.TenantNames())
	switch strategyName {
	case "pald":
		strategy = nil // the controller builds the default PALD optimizer
	case "weighted-sum":
		strategy, err = pald.NewWeightedSum(space.Dim(), len(spec.SLOs), pald.Options{Seed: seed, MaxStep: 0.2})
	case "random":
		strategy, err = pald.NewRandomSearch(space.Dim(), 0.2, seed)
	default:
		return fmt.Errorf("unknown strategy %q", strategyName)
	}
	if err != nil {
		return err
	}
	rt, err := scenario.Build(spec, scenario.Options{Parallelism: parallelism, Strategy: strategy})
	if err != nil {
		return err
	}

	fmt.Printf("tempoctl: %s mix, %d containers, %d iterations, interval %s, strategy %s\n",
		mix, capacity, iterations, interval, strategyName)
	fmt.Printf("%5s  %10s  %10s  %8s  %8s\n", "iter", "DL viol", "AJR (s)", "switched", "reverted")
	for !rt.Done() {
		it, err := rt.Step()
		if err != nil {
			return err
		}
		fmt.Printf("%5d  %10.3f  %10.1f  %8v  %8v\n",
			it.Index, it.Observed[0], it.Observed[1], it.Switched, it.Reverted)
	}
	fmt.Printf("\nbest-effort AJR improvement: %.1f%%\n", core.Improvement(rt.Controller.History(), 1)*100)
	final := rt.Current()
	fmt.Println("final RM configuration:")
	for _, name := range space.TenantNames {
		tc := final.Tenant(name)
		fmt.Printf("  %-12s weight=%-5.2f min=%-3d max=%-3d sharePreempt=%-8s minPreempt=%s\n",
			name, tc.Weight, tc.MinShare, tc.MaxShare,
			tc.SharePreemptTimeout.Round(time.Second), tc.MinSharePreemptTimeout.Round(time.Second))
	}
	return nil
}

func runSpec(path string, parallelism int, reportPath string, quiet bool) error {
	spec, err := scenario.LoadFile(path)
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := scenario.Run(spec, scenario.Options{Parallelism: parallelism})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	controller := "controller on"
	if !rep.ControllerEnabled {
		controller = "controller off"
	}
	fmt.Printf("%s: %d tenants, %d containers, %d x %gmin intervals, %s (%s wall)\n",
		rep.Scenario, len(spec.TenantNames()), rep.Capacity, len(rep.Iterations), rep.IntervalMinutes,
		controller, elapsed.Round(time.Millisecond))
	if !quiet {
		fmt.Printf("%5s  %4s  %8s  %8s  %9s", "iter", "cap", "switched", "reverted", "preempted")
		for _, o := range rep.Objectives {
			fmt.Printf("  %*s", max(10, len(o)), o)
		}
		fmt.Println()
		for _, it := range rep.Iterations {
			fmt.Printf("%5d  %4d  %8v  %8v  %9d", it.Index, it.Capacity, it.Switched, it.Reverted, it.Preemptions)
			for i, o := range rep.Objectives {
				fmt.Printf("  %*.4f", max(10, len(o)), it.Observed[i])
			}
			fmt.Println()
		}
	}
	fmt.Printf("summary: %d switches, %d reverts, %d preemptions, %d jobs completed\n",
		rep.Summary.Switches, rep.Summary.Reverts, rep.Summary.TotalPreemptions, rep.Summary.TotalCompletedJobs)
	for i, o := range rep.Objectives {
		fmt.Printf("  %-32s %12.4f -> %12.4f  (%+.1f%%)\n",
			o, rep.Summary.FirstObserved[i], rep.Summary.LastQuarterMean[i], rep.Summary.Improvement[i]*100)
	}
	if reportPath != "" {
		if err := rep.SaveFile(reportPath); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", reportPath)
	}
	fmt.Println()
	return nil
}

// experimentsCmd regenerates the tables and figures of the paper's
// evaluation (§8) plus the design ablations, each as a text table. Names
// are those of exp.Experiments.
func experimentsCmd(args []string) error {
	fs := flag.NewFlagSet("tempoctl experiments", flag.ExitOnError)
	var (
		only        = fs.String("run", "", "comma-separated experiment names (default: all)")
		seed        = fs.Int64("seed", 42, "random seed")
		iters       = fs.Int("iters", 0, "control-loop iterations (0 = per-experiment default)")
		parallelism = fs.Int("parallelism", 0, "what-if worker count (0 = one per CPU); results are identical for any value")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError exits instead
	if *iters < 0 {
		return fmt.Errorf("negative -iters %d", *iters)
	}
	if *parallelism > 0 {
		exp.Parallelism = *parallelism
	}
	selected := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(n)] = true
		}
	}
	ranAny := false
	for _, e := range exp.Experiments {
		if len(selected) > 0 && !selected[e.Name] {
			continue
		}
		ranAny = true
		start := time.Now()
		res, err := e.Run(*seed, *iters)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Printf("===== %s (%.1fs) =====\n%s\n", e.Name, time.Since(start).Seconds(), res.Render())
	}
	if !ranAny {
		return fmt.Errorf("no experiment matched %q", *only)
	}
	return nil
}
