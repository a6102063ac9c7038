// Command benchdiff is the CI perf-regression gate: it compares a freshly
// generated BENCH_<pr>.json against the committed baseline and fails on
// regressions beyond a tolerance band, so perf drift cannot land
// silently.
//
// Usage:
//
//	benchdiff -baseline BENCH_5.json -fresh BENCH_5.fresh.json
//	benchdiff ... -tolerance 0.25 -time-tolerance 0.5
//
// Metrics are classified by name:
//
//   - deterministic counts (tenants, jobs, ticks, verified, …) must match
//     exactly — any drift is a behavioural change, not noise;
//   - machine-independent ratios (speedup, alloc_reduction_*) gate at
//     -tolerance;
//   - allocation metrics (allocs_per_op / bytes_per_op and their
//     *_unpooled twins, lower-better) gate at -alloc-tolerance: alloc
//     counts of deterministic code are nearly machine-independent, so
//     regressions here mean the hot path started churning the heap again,
//     not that the runner got slower. ServiceThroughput's allocation
//     metrics are the exception: they are whole-process MemStats over a
//     concurrent HTTP drive (connection churn, goroutine stacks, GC
//     assists all vary with runner timing), so they gate at the wider
//     -time-tolerance instead;
//   - wall-clock metrics (*_ns lower-better, *_per_sec higher-better)
//     gate at the wider -time-tolerance, since absolute times move with
//     runner hardware; refresh the committed baseline from the CI
//     artifact when the fleet shifts.
//
// Improvements and unknown metrics are reported but never fail the gate.
// Exit status: 0 clean, 1 regression or shape mismatch, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"tempo/internal/benchrec"
)

// exactMetrics are deterministic outputs of seeded runs: equality, not
// tolerance, is the bar.
var exactMetrics = map[string]bool{
	"tenants":      true,
	"templates":    true,
	"jobs":         true,
	"tasks":        true,
	"iterations":   true,
	"ticks":        true,
	"clusters":     true,
	"qs_queries":   true,
	"whatif_calls": true,
	"verified":     true,
	// WAL codec output size per tick over the seeded fixture run: a pure
	// function of the codec and the deterministic schedules, so any drift
	// is a framing/encoding change, not noise.
	"bytes_per_tick": true,
	// Candidate-search accounting over the seeded controller fixtures:
	// how many candidates were proposed, fully scored, warm-started from
	// the cross-tick cache, or pruned by QS lower bounds. All are exact
	// integers (scored_reduction is an exact rational of two of them), so
	// any drift means the search behaved differently, not noise.
	"candidates":              true,
	"fully_scored":            true,
	"fully_scored_exhaustive": true,
	"warm_started":            true,
	"sims_run":                true,
	"sims_reused":             true,
	"scored_reduction":        true,
	"pruned_flood":            true,
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed BENCH_<pr>.json baseline")
		freshPath    = flag.String("fresh", "", "freshly generated BENCH_<pr>.json")
		tolerance    = flag.Float64("tolerance", 0.25, "allowed relative regression for ratio metrics (0.25 = 25%)")
		timeTol      = flag.Float64("time-tolerance", 0.5, "allowed relative regression for wall-clock metrics")
		allocTol     = flag.Float64("alloc-tolerance", 0.25, "allowed relative regression for allocation metrics")
	)
	flag.Parse()
	if *baselinePath == "" || *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -fresh are required")
		os.Exit(2)
	}
	failures, err := diff(os.Stdout, *baselinePath, *freshPath, *tolerance, *timeTol, *allocTol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if failures > 0 {
		fmt.Printf("\nbenchdiff: %d regression(s) beyond tolerance — if intended, refresh the baseline and commit it\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nbenchdiff: no regressions beyond tolerance")
}

type class int

const (
	classExact      class = iota
	classRatio            // higher is better, machine-independent
	classAllocLower       // lower is better, allocation counts/bytes
	classTimeLower        // lower is better, wall-clock
	classTimeHigher       // higher is better, wall-clock
	classInfo
)

// classify maps a (benchmark, metric) pair to its gating class.
func classify(bench, name string) class {
	switch {
	case exactMetrics[name]:
		return classExact
	case name == "speedup", strings.HasPrefix(name, "alloc_reduction"):
		return classRatio
	case strings.HasPrefix(name, "allocs_per_op"), strings.HasPrefix(name, "bytes_per_op"):
		if strings.HasPrefix(bench, "ServiceThroughput") {
			// Whole-process MemStats over a concurrent HTTP drive: real
			// signal, but timing-dependent — gate at the wall-clock band.
			return classTimeLower
		}
		return classAllocLower
	case strings.HasSuffix(name, "_ns"):
		return classTimeLower
	case strings.HasSuffix(name, "_per_sec"):
		return classTimeHigher
	default:
		return classInfo
	}
}

func diff(w *os.File, baselinePath, freshPath string, tolerance, timeTol, allocTol float64) (failures int, err error) {
	baseline, err := benchrec.Load(baselinePath)
	if err != nil {
		return 0, fmt.Errorf("loading baseline: %w", err)
	}
	fresh, err := benchrec.Load(freshPath)
	if err != nil {
		return 0, fmt.Errorf("loading fresh run: %w", err)
	}
	freshByName := map[string]map[string]float64{}
	for _, e := range fresh.Benchmarks {
		freshByName[e.Name] = e.Metrics
	}
	fmt.Fprintf(w, "baseline %s (%s) vs fresh %s (%s)\n\n", baselinePath, baseline.Go, freshPath, fresh.Go)
	fmt.Fprintf(w, "%-44s %14s %14s %9s  %s\n", "benchmark/metric", "baseline", "fresh", "delta", "verdict")
	for _, e := range baseline.Benchmarks {
		got, ok := freshByName[e.Name]
		if !ok {
			fmt.Fprintf(w, "%-44s %14s %14s %9s  FAIL (benchmark missing from fresh run)\n", e.Name, "-", "-", "-")
			failures++
			continue
		}
		for _, name := range sortedKeys(e.Metrics) {
			base := e.Metrics[name]
			label := e.Name + "/" + name
			freshVal, ok := got[name]
			if !ok {
				fmt.Fprintf(w, "%-44s %14.4g %14s %9s  FAIL (metric missing)\n", label, base, "-", "-")
				failures++
				continue
			}
			delta := 0.0
			if base != 0 {
				delta = (freshVal - base) / math.Abs(base)
			}
			verdict := "ok"
			switch classify(e.Name, name) {
			case classExact:
				if freshVal != base {
					verdict = "FAIL (deterministic count drifted)"
					failures++
				}
			case classRatio:
				if freshVal < base*(1-tolerance) {
					verdict = fmt.Sprintf("FAIL (beyond -%.0f%%)", tolerance*100)
					failures++
				}
			case classAllocLower:
				if freshVal > base*(1+allocTol) {
					verdict = fmt.Sprintf("FAIL (beyond +%.0f%%)", allocTol*100)
					failures++
				}
			case classTimeLower:
				if freshVal > base*(1+timeTol) {
					verdict = fmt.Sprintf("FAIL (beyond +%.0f%%)", timeTol*100)
					failures++
				}
			case classTimeHigher:
				if freshVal < base*(1-timeTol) {
					verdict = fmt.Sprintf("FAIL (beyond -%.0f%%)", timeTol*100)
					failures++
				}
			case classInfo:
				verdict = "info"
			}
			fmt.Fprintf(w, "%-44s %14.4g %14.4g %8.1f%%  %s\n", label, base, freshVal, delta*100, verdict)
		}
	}
	for _, e := range fresh.Benchmarks {
		found := false
		for _, b := range baseline.Benchmarks {
			if b.Name == e.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(w, "%-44s %14s %14s %9s  info (new benchmark — consider refreshing the baseline)\n", e.Name, "-", "-", "-")
		}
	}
	return failures, nil
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
