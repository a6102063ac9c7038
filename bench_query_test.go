package tempo

import (
	"math"
	"strings"
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

// sessionQueryPlan is the bench module's ad-hoc scan (queryPlanJSON in
// bench/workloads.go): per-tenant job count and p99 response time over
// the whole history.
const sessionQueryPlan = `{"version":1,"source":"jobs","ops":[` +
	`{"op":"group_by","by":["tenant"]},` +
	`{"op":"aggregate","aggs":[{"fn":"count","as":"jobs"},{"fn":"p99","field":"response_seconds","as":"p99_response"}]}]}`

// BenchmarkSessionQuery prices a one-shot read the way the bench
// module's tick-stress workload makes it: sessionQueryPlan over a
// 40-tick bench/workloads/stress.json session, built before the timer.
// Session.Query folds every tick into its cells without rendering and
// renders each row once, so its allocations follow the cells, not the
// rows; they are held under ceilings. The session is only read.
func BenchmarkSessionQuery(b *testing.B) {
	spec, err := LoadScenarioFile("bench/workloads/stress.json")
	if err != nil {
		b.Fatal(err)
	}
	spec.Iterations = 40
	sess, err := NewSession(spec, ScenarioOptions{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	for !sess.Done() {
		if _, err := sess.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	plan, err := ParseQueryPlan(strings.NewReader(sessionQueryPlan))
	if err != nil {
		b.Fatal(err)
	}
	query := func() *QueryResult {
		res, err := sess.Query(plan)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	res := query()
	checkCounts(b, count{"ticks", res.Ticks, 40}, count{"rows", len(res.Rows), 100})
	allocs, bytes := measureAllocs(3, func() { query() })
	checkCeiling(b, "allocs_per_op", allocs, 1_815)
	checkCeiling(b, "bytes_per_op", bytes, 214_330)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
}
