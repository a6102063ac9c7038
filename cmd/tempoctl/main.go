// Command tempoctl is Tempo's command line: it runs control loops and
// declarative scenarios, regenerates the paper's experiments, generates
// and simulates workload traces, load-tests a tempod and queries one.
//
// Usage:
//
//	tempoctl [run] -mix ec2 -capacity 48 -iterations 15 -interval 1h \
//	         -deadline-slack 0.25 -deadline-target 0.05 [-report out.json]
//	tempoctl run -spec internal/scenario/testdata/scenarios/flash-crowd.json [-report out.json]
//	tempoctl run -dir internal/scenario/testdata/scenarios [-quiet]
//	tempoctl experiments [-run figure6,figure11] [-seed 7] [-iters 20]
//	tempoctl trace -mix abc -hours 24 -scale 0.5 -seed 1 -out trace.json
//	tempoctl simulate -trace trace.json [-config rm.json] [-noise] [-seed 7]
//	tempoctl simulate -trace trace.json -compare a.json,b.json [-parallelism 8]
//	tempoctl load -clusters 100 [-json]
//	tempoctl query -addr http://localhost:8080 -cluster c1 -plan plan.json [-stream]
//
// Without a subcommand, tempoctl runs. Every form of run prints the same
// per-iteration QS table and summary. Every subcommand's -h lists its
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
// (see internal/scenario and the README for the format); otherwise its
// flags build a two-tenant spec that starts from a deliberately skewed
// "expert" configuration. Every spec prints through runSpec, whose output
// and -report file are byte-identical for any -parallelism.
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
		reportPath  = fs.String("report", "", "write the canonical report JSON here (not with -dir)")
		quiet       = fs.Bool("quiet", false, "suppress the per-iteration table")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError exits instead
	var built []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "spec", "dir", "parallelism", "report", "quiet":
		default:
			built = append(built, "-"+f.Name)
		}
	})
	opts := scenario.Options{Parallelism: *parallelism}
	switch {
	case *specPath == "" && *dir == "":
		spec, strat, err := flagSpec(*mix, *capacity, *scale, *iterations, *interval, *slack, *dlTarget, *seed, *candidates, *strategy)
		if err != nil {
			return err
		}
		opts.Strategy = strat
		return runSpec(spec, opts, *reportPath, *quiet)
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
		spec, err := scenario.LoadFile(p)
		if err != nil {
			return err
		}
		if err := runSpec(spec, opts, *reportPath, *quiet); err != nil {
			return err
		}
	}
	return nil
}

// flagSpec builds flag mode's §8.2 two-tenant spec and, unless the
// strategy is PALD (which the controller builds itself), its optimizer.
func flagSpec(mix string, capacity int, scale float64, iterations int, interval time.Duration, slack, dlTarget float64, seed int64, candidates int, strategyName string) (*scenario.Spec, pald.Strategy, error) {
	spec := exp.TwoTenantSpec(seed, slack, interval, iterations)
	switch mix {
	case "ec2":
		spec.Tenants = exp.EC2Mix(scale)
	case "two-tenant":
		spec.Tenants = exp.TwoTenantMix(scale)
	default:
		return nil, nil, fmt.Errorf("unknown mix %q", mix)
	}
	spec.Name = "tempoctl"
	spec.Capacity = capacity
	spec.SLOs[0].Target = &dlTarget
	spec.Controller.Candidates = candidates
	dim := cluster.DefaultSpace(capacity, spec.TenantNames()).Dim()
	switch strategyName {
	case "pald":
		return spec, nil, nil
	case "weighted-sum":
		strategy, err := pald.NewWeightedSum(dim, len(spec.SLOs), pald.Options{Seed: seed, MaxStep: 0.2})
		return spec, strategy, err
	case "random":
		strategy, err := pald.NewRandomSearch(dim, 0.2, seed)
		return spec, strategy, err
	}
	return nil, nil, fmt.Errorf("unknown strategy %q", strategyName)
}

// runSpec runs one spec and prints, per iteration unless quiet, the observed
// QS, whether a new RM configuration was adopted and whether the revert guard
// rolled one back, then a summary; reportPath receives the canonical report.
func runSpec(spec *scenario.Spec, opts scenario.Options, reportPath string, quiet bool) error {
	start := time.Now()
	rep, err := scenario.Run(spec, opts)
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
