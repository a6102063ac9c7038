// Command experiments regenerates the tables and figures of the paper's
// evaluation (§8) plus the design ablations, printing each as a text table.
//
// Usage:
//
//	experiments                 # run everything
//	experiments -run figure6    # run one experiment
//	experiments -seed 7 -iters 20
//
// Experiment names are those of exp.Experiments: table1, table2, figure1,
// figure2, figure5, figure6, figure7, figure8, figure9, figure10,
// figure11, figure12, proxy, strategies, guard, gradient.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tempo/internal/exp"
)

func main() {
	var (
		only        = flag.String("run", "", "comma-separated experiment names (default: all)")
		seed        = flag.Int64("seed", 42, "random seed")
		iters       = flag.Int("iters", 0, "control-loop iterations (0 = per-experiment default)")
		parallelism = flag.Int("parallelism", 0, "what-if worker count (0 = one per CPU); results are identical for any value")
	)
	flag.Parse()
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
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("===== %s (%.1fs) =====\n%s\n", e.Name, time.Since(start).Seconds(), res.Render())
	}
	if !ranAny {
		fmt.Fprintf(os.Stderr, "experiments: no experiment matched %q\n", *only)
		os.Exit(1)
	}
}
