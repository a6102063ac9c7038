// Command bench is the repository's one benchmark: it drives an
// in-process tempod end to end over loopback HTTP on one of four
// workloads and, in a traced run, layer by layer. BENCHMARK.json at the
// repository root declares the command line and every metric; README.md
// here says how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type options struct {
	workload string // "" runs all four, one after the other
	seed     int64
	seconds  float64
	trace    bool
	repeat   int
	scale    string
	out      string // where a traced run writes trace-<workload>.jsonl
	tmp      string // scratch for data dirs; emptied of what the run made
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: tick-small, tick-stress, mixed-rw or restart (default: all four in turn)")
	fs.Int64Var(&opt.seed, "seed", 0, "seed every generated input derives from (required)")
	fs.Float64Var(&opt.seconds, "seconds", 15, "how long to measure: epochs repeat until their windows add up to this")
	fs.IntVar(&trace, "trace", 0, "0 prints the end-to-end metrics; 1 runs traced and prints the per-layer metrics")
	fs.IntVar(&opt.repeat, "repeat", 1, "run the set this many times and hold each later set's end-to-end metrics to the first's, within the bounds")
	fs.StringVar(&opt.scale, "scale", "full", "full, or tiny for tests")
	fs.StringVar(&opt.out, "out", filepath.Join(".bench_build", "trace"), "directory a traced run writes trace-<workload>.jsonl into")
	fs.StringVar(&opt.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "scratch directory for data dirs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seeded := false
	fs.Visit(func(f *flag.Flag) { seeded = seeded || f.Name == "seed" })
	opt.trace = trace == 1
	if !seeded || fs.NArg() > 0 || trace < 0 || trace > 1 || opt.repeat < 1 || (opt.repeat > 1 && opt.trace) {
		fmt.Fprintln(stderr, "usage: bench -seed <n> [-workload <name>] [-seconds <s>] [-trace 0|1] [-repeat <n>] [-scale full|tiny]")
		return 2
	}
	all, err := workloadsAt(opt.scale)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var names []string
	for _, w := range all {
		if opt.workload == "" || opt.workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", opt.workload)
		return 2
	}

	// sets[k][workload] is the k-th run of that workload.
	sets := make([]map[string]*result, opt.repeat)
	for k := range sets {
		sets[k] = map[string]*result{}
		for _, name := range names {
			one := opt
			one.workload = name
			res, err := execute(one, stdout)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			// The result line ends a workload's output; when one workload
			// runs once it is the last line of all.
			fmt.Fprintf(stdout, "%s\n", line)
			if !res.Correct {
				return 1
			}
			sets[k][name] = res
		}
	}
	if !compareSets(stdout, names, sets) {
		return 1
	}
	return 0
}

// compareSets prints, for every later set, workload and end-to-end
// metric, the first set's value, the later one's, how much worse the later
// one is as a share of the first, and the bound; it reports whether every
// difference stayed within its bound. The sets ran the same seed, so the
// inputs were identical and any difference is the box's.
func compareSets(out io.Writer, names []string, sets []map[string]*result) bool {
	within := true
	for k := 1; k < len(sets); k++ {
		for _, name := range names {
			for _, d := range endToEnd {
				a, b := sets[0][name].Metrics[d.name].Value, sets[k][name].Metrics[d.name].Value
				worse := ratio(b-a, a)
				if d.better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				if worse > d.bound {
					verdict, within = "EXCEEDS BOUND", false
				}
				fmt.Fprintf(out, "repeat %d vs 1 %-12s %-14s %12.4f -> %12.4f %-4s worse by %6.2f%% bound %3.0f%%  %s\n",
					k+1, name, d.name, a, b, d.unit, 100*worse, 100*d.bound, verdict)
			}
		}
	}
	return within
}

// execute runs one workload and returns its result; the human-readable
// report goes to out. An error means the run could not be carried out at
// all; a run that finished with wrong outputs returns Correct == false.
func execute(opt options, out io.Writer) (*result, error) {
	all, err := workloadsAt(opt.scale)
	if err != nil {
		return nil, err
	}
	var w *workload
	for i := range all {
		if all[i].name == opt.workload {
			w = &all[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err := os.MkdirAll(opt.tmp, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "workload %s seed %d scale %s trace %v | nproc %d GOMAXPROCS %d %s | closed loop, %d clients, no retries\n",
		w.name, opt.seed, opt.scale, opt.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), clients)

	r := &run{w: w, opt: opt, out: out, ops: tally{}, e2e: map[string][]float64{}}
	budget := time.Duration(opt.seconds * float64(time.Second))
	var defs []metricDef
	var values map[string]measured
	if opt.trace {
		// Half the time goes to ordinary epochs, which feed the layer
		// metrics only a loaded service can show; the layered pass is
		// fixed work on top.
		if err := r.measure(budget / 2); err != nil {
			return nil, err
		}
		l, err := r.layeredPass()
		if err != nil {
			return nil, fmt.Errorf("%s layered pass: %w", w.name, err)
		}
		path := filepath.Join(opt.out, "trace-"+w.name+".jsonl")
		if err := l.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace: %d spans in %s\n", len(l.tr.spans), path)
		defs, values = perLayer, r.layerMetrics(l)
	} else {
		if err := r.measure(budget); err != nil {
			return nil, err
		}
		defs, values = endToEnd, r.endToEndMetrics()
	}

	res := &result{Correct: len(r.mismatches) == 0, Metrics: map[string]metricValue{}}
	res.Attempted, res.Failed = r.ops.totals()
	for _, d := range defs {
		m, ok := values[d.name]
		if !ok || math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{m.v, d.unit}
		fmt.Fprintf(out, "%-34s %16.4f %-6s n=%d\n", d.name, m.v, d.unit, m.n)
	}
	var opNames []string
	for op := range r.ops {
		opNames = append(opNames, op)
	}
	sort.Strings(opNames)
	for _, op := range opNames {
		fmt.Fprintf(out, "op %-8s attempted %7d failed %d\n", op, r.ops[op].attempted, r.ops[op].failed)
	}
	fmt.Fprintf(out, "epochs %d, measured %.2fs, error_rate %g\n", r.epochs, r.window.wall.Seconds(), float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, m := range r.mismatches {
		fmt.Fprintln(out, "INCORRECT:", m)
	}
	return res, nil
}
