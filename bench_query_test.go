package tempo

import (
	"math"
	"testing"
	"time"

	"tempo/internal/qs"
	"tempo/internal/query"
)

// BenchmarkQueryVsOracle prices the ad-hoc query layer against the raw
// incremental QS evaluator it is built on: the whole stress-1000 SLO set
// re-expressed as a query plan (an slos aggregate over the events
// relation), evaluated over the same schedule qs.EvalStream scores
// directly. The two must agree bit for bit — the query layer's contract
// is that it adds vocabulary, not arithmetic. The overhead ratio (plan
// compile + row materialization over the bare evaluator) is reported, not
// gated: it is a wall-clock ratio. The fixture shape is pinned and the
// allocations are held under ceilings.
func BenchmarkQueryVsOracle(b *testing.B) {
	sched, templates, err := stressEvalFixture()
	if err != nil {
		b.Fatal(err)
	}
	checkStressShape(b, sched, templates)
	end := sched.Horizon + time.Nanosecond
	// One control interval covering the whole schedule: the plan's tick 0
	// window is then exactly the oracle's full evaluation window.
	interval := sched.Horizon
	plan := &query.Plan{
		Version: query.Version,
		Source:  "events",
		Ops:     []query.OpSpec{{Op: "aggregate", SLOs: templates}},
	}
	runOnce := func() []query.ResultRow {
		r, err := query.Compile(plan, interval)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := r.PushTick(0, sched)
		if err != nil {
			b.Fatal(err)
		}
		return rows
	}

	want := qs.EvalStream(templates, sched, 0, end)
	rows := runOnce()
	if len(rows) != len(want) {
		b.Fatalf("query produced %d rows, oracle %d values", len(rows), len(want))
	}
	for i := range want {
		got := rows[i].Values["value"]
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			b.Fatalf("objective %d (%s): query %v != oracle %v", i, templates[i].Name(), got, want[i])
		}
	}

	queryNs := minDuration(3, func() { runOnce() })
	oracleNs := minDuration(3, func() { qs.EvalStream(templates, sched, 0, end) })
	overhead := float64(queryNs) / float64(oracleNs)
	allocs, bytes := measureAllocs(3, func() { runOnce() })
	checkCeiling(b, "allocs_per_op", allocs, 40_098)
	checkCeiling(b, "bytes_per_op", bytes, 6_447_920)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce()
	}
	b.ReportMetric(overhead, "overhead")
	b.ReportMetric(float64(queryNs.Nanoseconds()), "query-ns")
	b.ReportMetric(float64(oracleNs.Nanoseconds()), "oracle-ns")
}
