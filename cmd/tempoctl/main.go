// Command tempoctl runs Tempo's self-tuning control loop on an emulated
// multi-tenant cluster and reports the per-iteration SLO trajectory —
// the closest thing to "running Tempo" without a live YARN/Mesos cluster.
//
// Usage:
//
//	tempoctl -mix ec2 -capacity 48 -iterations 15 -interval 1h \
//	         -deadline-slack 0.25 -deadline-target 0.05
//
// The loop starts from a deliberately skewed "expert" configuration and
// prints, per iteration, the observed QS metrics, whether a new RM
// configuration was adopted, and whether the revert guard rolled one back.
//
// The query subcommand is a client for a running tempod's ad-hoc query
// API instead:
//
//	tempoctl query -addr http://localhost:8080 -cluster c1 -plan plan.json
//	tempoctl query -cluster c1 -plan '{"version":1,"source":"jobs",...}' -stream
//
// -plan accepts inline JSON, a file path, or "-" for stdin; -stream
// subscribes to the live SSE feed and prints per-tick deltas until the
// session completes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/core"
	"tempo/internal/exp"
	"tempo/internal/pald"
	"tempo/internal/scenario"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "query" {
		if err := runQuery(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "tempoctl: query:", err)
			os.Exit(1)
		}
		return
	}
	var (
		mix         = flag.String("mix", "ec2", "workload mix: ec2 or two-tenant")
		capacity    = flag.Int("capacity", 48, "cluster capacity in containers")
		scale       = flag.Float64("scale", 2.2, "arrival-rate scale")
		iterations  = flag.Int("iterations", 15, "control-loop iterations")
		interval    = flag.Duration("interval", time.Hour, "control interval L")
		slack       = flag.Float64("deadline-slack", 0.25, "QS_DL slack γ")
		dlTarget    = flag.Float64("deadline-target", 0.0, "deadline-violation target r")
		seed        = flag.Int64("seed", 42, "random seed")
		candidates  = flag.Int("candidates", 5, "candidate configurations per loop")
		strategy    = flag.String("strategy", "pald", "optimizer: pald, weighted-sum, random")
		parallelism = flag.Int("parallelism", 0, "what-if worker count (0 = one per CPU)")
	)
	flag.Parse()
	if err := run(*mix, *capacity, *scale, *iterations, *interval, *slack, *dlTarget, *seed, *candidates, *strategy, *parallelism); err != nil {
		fmt.Fprintln(os.Stderr, "tempoctl:", err)
		os.Exit(1)
	}
}

func run(mix string, capacity int, scale float64, iterations int, interval time.Duration, slack, dlTarget float64, seed int64, candidates int, strategyName string, parallelism int) error {
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
