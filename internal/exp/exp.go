// Package exp is the experiment harness: one entry point per table and
// figure of the paper's evaluation (§8), listed in the Experiments
// registry that the repository-level benchmark (bench_test.go), the
// `tempoctl experiments` subcommand and the golden test loop over. Each
// experiment returns a Result whose Render method prints the same
// rows/series the paper reports. The control-loop experiments are
// scenario specs run by scenario.Build.
//
// Absolute numbers differ from the paper (the substrate is an emulator, not
// a 700-node production cluster); the experiments are judged on shape: who
// wins, by roughly what factor, and where the orderings fall. EXPERIMENTS.md
// records paper-vs-measured for every entry.
package exp

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/scenario"
	"tempo/internal/workload"
)

// Parallelism is the What-if Model worker count every experiment uses;
// `tempoctl experiments -parallelism` overrides it. QS vectors are
// bit-identical for any setting, so the reproduced tables and figures do
// not depend on it — only wall-clock time does.
var Parallelism = runtime.GOMAXPROCS(0)

// ABCCapacity is the emulated stand-in for Company ABC's production
// cluster in the component-validation experiments.
const ABCCapacity = 80

// EC2Capacity emulates the 20-node EC2 cluster of the end-to-end
// experiments (§8.2): 20 nodes × 8 containers.
const EC2Capacity = 160

// ABCScale tunes the Company ABC arrival rates to the emulated capacity.
const ABCScale = 0.5

// TwoTenantMix is the deadline-driven + best-effort pair used by
// §8.2.1–8.2.3 (scaled from Facebook/Cloudera-like mixes). Deadlines are
// tight — about 30% of deadline jobs miss under the expert configuration,
// echoing the paper's Concern A ("about 30% of high-priority jobs in APP
// miss deadlines").
func TwoTenantMix(scale float64) []scenario.TenantSpec {
	return []scenario.TenantSpec{
		{
			Name:     "deadline",
			Profile:  "deadline-driven",
			Scale:    scale,
			Deadline: &scenario.DeadlineSpec{FactorLo: 1.0, FactorHi: 1.5, Parallelism: 32},
		},
		{Name: "besteffort", Profile: "best-effort", Scale: scale},
	}
}

// EC2Mix is the tenant pair of the end-to-end EC2 experiments (§8.2): the
// paper scaled and replayed Facebook and Cloudera customer traces via
// SWIM. The Cloudera-like tenant carries deadlines; the Facebook-like
// tenant (a torrent of small jobs with a heavy tail) is best-effort. Most
// jobs complete well within a control interval, so the windowed QS
// metrics are stable.
func EC2Mix(scale float64) []scenario.TenantSpec {
	return []scenario.TenantSpec{
		{
			Name:     "deadline",
			Profile:  "cloudera",
			Scale:    scale,
			Deadline: &scenario.DeadlineSpec{FactorLo: 1.1, FactorHi: 1.8, Parallelism: 16},
		},
		{Name: "besteffort", Profile: "facebook", Scale: scale},
	}
}

// TwoTenantProfiles returns the statistical profiles of TwoTenantMix.
func TwoTenantProfiles(scale float64) []workload.TenantProfile {
	return profiles(TwoTenantMix(scale))
}

// EC2TwoTenantProfiles returns the statistical profiles of EC2Mix.
func EC2TwoTenantProfiles(scale float64) []workload.TenantProfile {
	return profiles(EC2Mix(scale))
}

// profiles materializes fixed tenant presets; they name only known
// profiles, so an error is a programming error.
func profiles(tenants []scenario.TenantSpec) []workload.TenantProfile {
	out := make([]workload.TenantProfile, len(tenants))
	for i := range tenants {
		p, err := tenants[i].Materialize()
		if err != nil {
			panic(err)
		}
		out[i] = p
	}
	return out
}

// ABCTrace generates the Company ABC mix over the horizon.
func ABCTrace(horizon time.Duration, seed int64) (*workload.Trace, error) {
	return workload.Generate(workload.CompanyABC(ABCScale), workload.GenerateOptions{
		Horizon: horizon,
		Seed:    seed,
		Name:    "company-abc",
	})
}

// ReconstructTrace rebuilds a workload trace from an observed schedule, the
// way a deployment would harvest job history from the RM's logs: completed
// jobs only, with per-task durations taken from the final (successful)
// attempt. Preempted and failed attempts distort nothing here — but jobs
// that never completed are lost, which is one source of the provisioning
// experiment's estimation error.
func ReconstructTrace(s *cluster.Schedule, name string) *workload.Trace {
	type durs struct {
		maps, reds []time.Duration
	}
	byJob := make([]durs, len(s.Jobs))
	for i := range s.Tasks {
		t := &s.Tasks[i]
		if t.Outcome != cluster.TaskFinished {
			continue
		}
		d := &byJob[t.Job]
		if t.Kind == workload.Map {
			d.maps = append(d.maps, t.Duration())
		} else {
			d.reds = append(d.reds, t.Duration())
		}
	}
	tr := &workload.Trace{Name: name, Horizon: s.Horizon}
	for i := range s.Jobs {
		j := &s.Jobs[i]
		if !j.Completed {
			continue
		}
		d := &byJob[i]
		if len(d.maps) == 0 {
			continue
		}
		spec := workload.NewMapReduceJob(j.ID, s.TenantNames[j.Tenant], j.Submit, d.maps, d.reds)
		spec.Deadline = j.Deadline
		tr.Jobs = append(tr.Jobs, spec)
	}
	tr.Sort()
	return tr
}

// table renders an aligned text table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
