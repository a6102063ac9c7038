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
	"tempo/internal/whatif"
)

// decisionTicks is how many control intervals the stress-tier comparison
// drives. Tick 0 is the cold tick (nothing cached yet); the reduction
// gate is computed over the steady-state ticks after it.
const decisionTicks = 3

// batchOnlyWhatIf hides EvaluateSearch so the controller's SearchModel
// assertion fails and scoring falls back to the exhaustive batch path.
type batchOnlyWhatIf struct{ m *whatif.Model }

func (b *batchOnlyWhatIf) Evaluate(cfg cluster.Config) ([]float64, error) { return b.m.Evaluate(cfg) }
func (b *batchOnlyWhatIf) EvaluateBatch(cfgs []cluster.Config) ([][]float64, error) {
	return b.m.EvaluateBatch(cfgs)
}

// stressController builds a controller over the committed stress-1000
// tenant mix (1000 tenants, capacity 400) with a RandomSearch strategy
// and two candidates per tick — the stress-scale shape of the
// incremental-search win.
func stressController(b *testing.B, exhaustive bool) *core.Controller {
	b.Helper()
	spec, err := scenario.LoadFile("internal/scenario/testdata/scenarios/stress-1000.json")
	if err != nil {
		b.Fatal(err)
	}
	spec.Iterations = decisionTicks // extend the trace to cover every benched tick
	rt, err := scenario.Build(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	model, err := rt.NewWhatIfModel(1)
	if err != nil {
		b.Fatal(err)
	}
	var coreModel core.Model = model
	if exhaustive {
		coreModel = &batchOnlyWhatIf{m: model}
	}
	space := cluster.DefaultSpace(spec.Capacity, spec.TenantNames())
	rs, err := pald.NewRandomSearch(space.Dim(), 0.2, spec.Seed+7)
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := core.NewController(core.Config{
		Space:       space,
		Templates:   rt.Templates,
		Model:       coreModel,
		Environment: &core.TraceEnvironment{Trace: rt.Trace, Seed: spec.Seed},
		Interval:    rt.Interval,
		Candidates:  2,
		Strategy:    rs,
		Now:         time.Now,
	}, rt.Initial)
	if err != nil {
		b.Fatal(err)
	}
	return ctl
}

// driveDecisions steps the controller n ticks and returns the stripped
// trajectory plus aggregated search stats over ticks [from, n).
func driveDecisions(b *testing.B, c *core.Controller, n, from int) ([]core.Iteration, core.SearchStats) {
	b.Helper()
	hist, err := c.Run(n)
	if err != nil {
		b.Fatal(err)
	}
	var agg core.SearchStats
	for i := from; i < n; i++ {
		st := c.Search(i)
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
	exHist, exStats := driveDecisions(b, stressController(b, true), decisionTicks, 1)
	incHist, incStats := driveDecisions(b, stressController(b, false), decisionTicks, 1)
	if !reflect.DeepEqual(exHist, incHist) {
		b.Fatalf("incremental search changed the stress trajectory:\nexhaustive:  %+v\nincremental: %+v", exHist, incHist)
	}
	reduction := 1 - float64(incStats.FullyScored)/math.Max(float64(exStats.FullyScored), 1)
	if reduction < 0.30 {
		b.Fatalf("incremental search scored %d candidates vs %d exhaustive (reduction %.3f < 0.30)",
			incStats.FullyScored, exStats.FullyScored, reduction)
	}

	checkCounts(b,
		count{"candidates", incStats.Candidates, 6},
		count{"fully_scored", incStats.FullyScored, 4},
		count{"fully_scored_exhaustive", exStats.FullyScored, 6},
		count{"warm_started", incStats.WarmStarted, 2},
		count{"sims_run", incStats.SimsRun, 4},
		count{"sims_reused", incStats.SimsReused, 2},
	)

	// The benched op: one steady-state decision (observe → propose →
	// warm-started incremental scoring → select) at stress-1000 scale.
	ctl := stressController(b, false)
	if _, err := ctl.Step(); err != nil { // cold tick outside the timer
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctl.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(reduction, "scored-reduction")
	b.ReportMetric(float64(incStats.DecisionNanos), "decision-ns")
}
