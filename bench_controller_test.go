package tempo

// BenchmarkControllerDecision measures the controller's incremental
// candidate search (cross-tick warm-starting) against exhaustive scoring
// at the stress tier. It fails outright — the CI regression gate — if the
// incremental search stops saving at least 30% of the fully scored
// candidates per steady-state decision or perturbs the decision
// trajectory. The search counters are pinned at their committed values:
// the fixture is seeded, so any drift means the search behaved
// differently.

import (
	"math"
	"reflect"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/core"
	"tempo/internal/pald"
	"tempo/internal/scenario"
)

// decisionTicks is how many control intervals the stress-tier comparison
// drives. Tick 0 is the cold tick (nothing cached yet); the reduction
// gate is computed over the steady-state ticks after it.
const decisionTicks = 3

// stressRuntime builds the committed stress-1000 tenant mix (1000
// tenants, capacity 400) with its controller enabled: a RandomSearch
// strategy and two candidates per tick — the stress-scale shape of the
// incremental-search win. exhaustive scores every candidate through the
// exhaustive batch path instead.
func stressRuntime(b *testing.B, exhaustive bool) *scenario.Runtime {
	b.Helper()
	spec, err := scenario.LoadFile("internal/scenario/testdata/scenarios/stress-1000.json")
	if err != nil {
		b.Fatal(err)
	}
	spec.Iterations = decisionTicks // extend the trace to cover every benched tick
	spec.Controller = scenario.ControllerSpec{Candidates: 2}
	rs, err := pald.NewRandomSearch(cluster.DefaultSpace(spec.Capacity, spec.TenantNames()).Dim(), 0.2, spec.Seed+7)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := scenario.Build(spec, scenario.Options{Parallelism: 1, Strategy: rs, ExhaustiveSearch: exhaustive, Clock: time.Now})
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// decide runs tick i's window of the trace, noise-free, under the
// controller's current configuration and applies the schedule.
func decide(b *testing.B, rt *scenario.Runtime, i int) core.Iteration {
	b.Helper()
	from := time.Duration(i) * rt.Interval
	sched, err := cluster.Run(rt.Trace.Window(from, from+rt.Interval), rt.Controller.Current(), cluster.Options{Horizon: rt.Interval})
	if err != nil {
		b.Fatal(err)
	}
	it, err := rt.Controller.Apply(sched)
	if err != nil {
		b.Fatal(err)
	}
	return it
}

// driveDecisions decides n ticks and returns the stripped trajectory plus
// aggregated search stats over ticks [from, n).
func driveDecisions(b *testing.B, rt *scenario.Runtime, n, from int) ([]core.Iteration, core.SearchStats) {
	b.Helper()
	hist := make([]core.Iteration, n)
	for i := range hist {
		hist[i] = decide(b, rt, i)
	}
	var agg core.SearchStats
	for i := from; i < n; i++ {
		st := hist[i].Search
		if st == nil {
			b.Fatalf("tick %d has no search stats", i)
		}
		agg.Candidates += st.Candidates
		agg.FullyScored += st.FullyScored
		agg.WarmStarted += st.WarmStarted
		agg.SimsRun += st.SimsRun
		agg.SimsReused += st.SimsReused
		if agg.DecisionNanos == 0 || st.DecisionNanos < agg.DecisionNanos {
			agg.DecisionNanos = st.DecisionNanos // min: stable estimator
		}
	}
	for i := range hist {
		hist[i].Search = nil
	}
	return hist, agg
}

func BenchmarkControllerDecision(b *testing.B) {
	// Stress tier: warm-starting must cut fully scored candidates per
	// steady-state decision by >= 30% without changing any decision.
	exHist, exStats := driveDecisions(b, stressRuntime(b, true), decisionTicks, 1)
	incHist, incStats := driveDecisions(b, stressRuntime(b, false), decisionTicks, 1)
	if !reflect.DeepEqual(exHist, incHist) {
		b.Fatalf("incremental search changed the stress trajectory:\nexhaustive:  %+v\nincremental: %+v", exHist, incHist)
	}
	reduction := 1 - float64(incStats.FullyScored)/math.Max(float64(exStats.FullyScored), 1)
	if reduction < 0.30 {
		b.Fatalf("incremental search scored %d candidates vs %d exhaustive (reduction %.3f < 0.30)",
			incStats.FullyScored, exStats.FullyScored, reduction)
	}

	// The cold tick's certificate covers both steady-state ticks' two
	// proposals, so no steady-state pair simulates.
	checkCounts(b,
		count{"candidates", incStats.Candidates, 6},
		count{"fully_scored", incStats.FullyScored, 0},
		count{"fully_scored_exhaustive", exStats.FullyScored, 6},
		count{"warm_started", incStats.WarmStarted, 6},
		count{"sims_run", incStats.SimsRun, 0},
		count{"sims_reused", incStats.SimsReused, 6},
	)

	// The benched op: one steady-state decision (observe → propose →
	// warm-started incremental scoring → select) at stress-1000 scale.
	rt := stressRuntime(b, false)
	decide(b, rt, 0) // cold tick outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decide(b, rt, 1+i)
	}
	b.ReportMetric(reduction, "scored-reduction")
	b.ReportMetric(float64(incStats.DecisionNanos), "decision-ns")
}
