package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// declared is BENCHMARK.json, as far as these tests read it.
type declared struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatchesProgram holds BENCHMARK.json and the program's
// own tables together, and both inside the limits the file format sets.
func TestDeclarationMatchesProgram(t *testing.T) {
	d := readDeclared(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(d.Workloads) > 8 || len(d.EndToEnd) > 16 || len(d.PerLayer) > 128 {
		t.Fatalf("too many entries: %d workloads, %d end-to-end, %d per-layer", len(d.Workloads), len(d.EndToEnd), len(d.PerLayer))
	}
	if len(d.Workloads) != len(fullScale) {
		t.Fatalf("%d workloads declared, %d in the program", len(d.Workloads), len(fullScale))
	}
	for i, w := range d.Workloads {
		if w.Name != fullScale[i].name || w.Why != fullScale[i].why || len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, w.Name, w.Why, fullScale[i].name, fullScale[i].why)
		}
		if tinyScale[i].name != w.Name {
			t.Errorf("tiny scale has %q where full scale has %q", tinyScale[i].name, w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []declaredMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: declared %s [%s], program has %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if bounded && (m.Better != want[i].better || m.Bound == nil || *m.Bound != want[i].bound) {
				t.Errorf("%s %s: declared better %q bound %v, program has %q and %v", kind, m.Name, m.Better, m.Bound, want[i].better, want[i].bound)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s %s [%s]: malformed or repeated", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, true)
	check("per_layer", d.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
	for _, name := range exactMetrics {
		if !seen[name] {
			t.Errorf("exact metric %s is not declared", name)
		}
	}
}

func runTiny(t *testing.T, workload string, seed int64, trace bool) (*result, string) {
	t.Helper()
	out := t.TempDir()
	res, err := execute(options{workload: workload, seed: seed, trace: trace, scale: "tiny", out: out, tmp: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res, filepath.Join(out, "trace-"+workload+".jsonl")
}

// TestSmoke runs every workload at tiny scale, untraced and traced: the
// outputs check out, nothing fails, exactly the declared metrics come
// out with their units, and each trace file is well formed.
func TestSmoke(t *testing.T) {
	for _, w := range tinyScale {
		for _, trace := range []bool{false, true} {
			res, tracePath := runTiny(t, w.name, 1, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s: present=%v unit %q, want %q", w.name, trace, d.name, ok, m.Unit, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.name, m.Value)
				}
			}
			if !trace {
				continue
			}
			f, err := os.Open(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			spans, err := readTrace(f)
			f.Close()
			if err != nil {
				t.Fatalf("%s: %v", tracePath, err)
			}
			if _, err := selfTimes(spans); err != nil || len(spans) == 0 {
				t.Errorf("%s: %d spans: %v", tracePath, len(spans), err)
			}
		}
	}
}

// TestFailedTickIsCounted drives a cluster past its iteration budget:
// the 409 must be counted as a failed operation, not dropped.
func TestFailedTickIsCounted(t *testing.T) {
	srv, err := startServer("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	pop, err := populate([]group{{base: "small", clusters: 1, ticks: 2}}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient(srv.base)
	defer cl.close()
	if _, ok := cl.create(&pop[0]); !ok {
		t.Fatal(cl.first)
	}
	for i := 0; i < 3; i++ {
		_, _, ok := cl.tick(pop[0].id, i)
		if ok != (i < 2) {
			t.Errorf("tick %d: ok=%v", i, ok)
		}
	}
	if c := cl.ops["tick"]; c.attempted != 3 || c.failed != 1 {
		t.Errorf("tick tally: attempted %d failed %d, want 3 and 1", c.attempted, c.failed)
	}
	r := &run{ops: tally{}}
	r.absorb(cl)
	if attempted, failed := r.ops.totals(); attempted != 4 || failed != 1 || len(r.mismatches) != 1 {
		t.Errorf("run tally: attempted %d failed %d mismatches %v", attempted, failed, r.mismatches)
	}
}

// exactMetrics are counts that repeat exactly for a seed: they do not
// depend on timing, on how many epochs fit the window, or on which
// client got there first. store.snapshot_bytes_end and
// store.data_bytes_per_tick are not among them: a snapshot carries the
// controller's history with each tick's wall-clock decision_ns, so its
// size moves by a few bytes from run to run.
var exactMetrics = []string{
	"store.wal_bytes_per_tick", "session.report_bytes_end",
	"core.candidates", "core.fully_scored", "core.warm_started", "core.pruned",
	"whatif.sims_run", "whatif.sims_reused", "whatif.reuse_ratio",
	"cluster.events_per_tick", "cluster.tasks_per_tick", "cluster.jobs_per_tick",
	"qs.templates", "query.result_rows",
}

// TestExactMetricsRepeat runs one seed twice and another once: every
// exact metric repeats for the seed, and the inputs move with the seed.
func TestExactMetricsRepeat(t *testing.T) {
	for _, w := range []string{"tick-small", "restart"} {
		a, _ := runTiny(t, w, 7, true)
		b, _ := runTiny(t, w, 7, true)
		c, _ := runTiny(t, w, 8, true)
		for _, name := range exactMetrics {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s is %v then %v for one seed", w, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		if a.Metrics["cluster.events_per_tick"].Value == c.Metrics["cluster.events_per_tick"].Value {
			t.Errorf("%s: cluster.events_per_tick did not move with the seed", w)
		}
	}
}

// TestCompareSets holds the -repeat verdict to the bounds: a later set may
// be worse than the first by a metric's bound and no more, and worse means
// lower for a rate.
func TestCompareSets(t *testing.T) {
	set := func(opsPerS, p50 float64) map[string]*result {
		m := map[string]metricValue{}
		for _, d := range endToEnd {
			m[d.name] = metricValue{1, d.unit}
		}
		m["ops_per_s"], m["op_p50_ms"] = metricValue{opsPerS, "1/s"}, metricValue{p50, "ms"}
		return map[string]*result{"tick-small": {Correct: true, Attempted: 1, Metrics: m}}
	}
	for _, c := range []struct {
		name        string
		opsPerS, ms float64
		within      bool
	}{
		{"identical", 100, 2, true},
		{"both better", 200, 1, true},
		{"inside the bounds", 80, 2.4, true},
		{"rate fell too far", 70, 2, false},
		{"latency rose too far", 100, 2.6, false},
	} {
		var out bytes.Buffer
		got := compareSets(&out, []string{"tick-small"}, []map[string]*result{set(100, 2), set(c.opsPerS, c.ms)})
		if got != c.within {
			t.Errorf("%s: within = %v, want %v\n%s", c.name, got, c.within, out.String())
		}
		if lines := bytes.Count(out.Bytes(), []byte("\n")); lines != len(endToEnd) {
			t.Errorf("%s: %d lines, want one per end-to-end metric", c.name, lines)
		}
	}
}

// TestUsage holds the command line to what README.md says: -seed is
// required, a workload must exist, and -repeat compares untraced runs.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "tick-small"},
		{"-seed", "1", "-workload", "nope"},
		{"-seed", "1", "-trace", "2"},
		{"-seed", "1", "-repeat", "0"},
		{"-seed", "1", "-repeat", "2", "-trace", "1"},
		{"-seed", "1", "-scale", "huge"},
	} {
		if code := realMain(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := samples{50, 10, 40, 20, 30}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 30}, {0.2, 10}, {0.21, 20}, {0.99, 50}, {1, 50}} {
		if got := s.percentile(c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q*100, got, c.want)
		}
	}
	if got := (samples{}).percentile(0.5); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ok := []span{
		{"tick", 1, "", 0, 100},
		{"session.tick", 1, "tick", 5, 60},
		{"core.decision", 1, "session.tick", 20, 60},
		{"store.append", 1, "tick", 60, 90},
		{"qs.eval", 1, "", 100, 120},
	}
	self, err := selfTimes(ok)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{15, 15, 40, 30, 20} {
		if self[i] != want {
			t.Errorf("self time of %s = %d, want %d", ok[i].Name, self[i], want)
		}
	}
	for name, bad := range map[string][]span{
		"missing parent":  {{"a", 1, "nope", 0, 1}},
		"parent other op": {{"p", 1, "", 0, 10}, {"a", 2, "p", 1, 2}},
		"outside parent":  {{"p", 1, "", 0, 10}, {"a", 1, "p", 5, 11}},
		"negative self":   {{"p", 1, "", 0, 10}, {"a", 1, "p", 0, 8}, {"b", 1, "p", 2, 10}},
		"repeated name":   {{"p", 1, "", 0, 10}, {"p", 1, "", 10, 20}},
	} {
		if _, err := selfTimes(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
