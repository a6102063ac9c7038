package query

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/scenario"
)

// refRow is one relation row derived straight from a schedule record:
// its session-time anchor and every column by name.
type refRow struct {
	t   time.Duration
	str map[string]string
	num map[string]float64
}

// refRows derives tick's source relation from sched's records, in the
// order the relation defines: record order for jobs and tasks, the
// canonical event order for events.
func refRows(source string, tick int, every time.Duration, sched *cluster.Schedule) []refRow {
	lo := time.Duration(tick) * every
	b2f := map[bool]float64{true: 1}
	var rows []refRow
	switch source {
	case "jobs":
		for _, j := range sched.Jobs {
			rows = append(rows, refRow{t: lo + j.Submit,
				str: map[string]string{"tenant": sched.TenantNames[j.Tenant]},
				num: map[string]float64{
					"submit_seconds":   (lo + j.Submit).Seconds(),
					"finish_seconds":   (lo + j.Finish).Seconds(),
					"response_seconds": (j.Finish - j.Submit).Seconds(),
					"deadline_seconds": j.Deadline.Seconds(),
					"completed":        b2f[j.Completed],
				}})
		}
	case "tasks":
		for _, a := range sched.Tasks {
			rows = append(rows, refRow{t: lo + a.Start,
				str: map[string]string{"tenant": sched.TenantNames[a.Tenant], "task_kind": a.Kind.String(), "outcome": a.Outcome.String()},
				num: map[string]float64{
					"start_seconds":    (lo + a.Start).Seconds(),
					"end_seconds":      (lo + a.End).Seconds(),
					"duration_seconds": (a.End - a.Start).Seconds(),
				}})
		}
	case "events":
		for _, ev := range sched.Events() {
			rw := refRow{t: lo + ev.Time,
				str: map[string]string{"kind": ev.Kind.String(), "tenant": ev.Tenant, "job": ev.JobID, "task_kind": "", "outcome": ""},
				num: map[string]float64{"delta": float64(ev.Delta), "attempt": float64(ev.Attempt), "deadline_seconds": 0, "completed": 0, "killed": 0}}
			switch ev.Kind {
			case cluster.EventJobSubmit:
				rw.num["deadline_seconds"] = ev.Deadline.Seconds()
			case cluster.EventTaskStart:
				rw.str["task_kind"] = ev.TaskKind.String()
			case cluster.EventTaskEnd:
				rw.str["task_kind"], rw.str["outcome"] = ev.TaskKind.String(), ev.Outcome.String()
			case cluster.EventJobFinish:
				rw.num["completed"], rw.num["killed"] = b2f[ev.Completed], b2f[ev.Killed]
			}
			rows = append(rows, rw)
		}
	}
	return rows
}

// refKeep reports whether rw passes one filter operator.
func refKeep(op *OpSpec, rw refRow) bool {
	if v, ok := rw.str[op.Field]; ok {
		if op.Eq != nil {
			return v == *op.Eq
		}
		for _, w := range op.In {
			if v == w {
				return true
			}
		}
		return false
	}
	v := rw.num[op.Field]
	if op.Field == "time" {
		v = rw.t.Seconds()
	}
	operand := func(s string) float64 {
		if d, err := time.ParseDuration(s); err == nil {
			return d.Seconds()
		}
		var f float64
		fmt.Sscan(s, &f)
		return f
	}
	if op.Eq != nil {
		return v == operand(*op.Eq)
	}
	return (op.Ge == nil || v >= operand(*op.Ge)) && (op.Gt == nil || v > operand(*op.Gt)) &&
		(op.Le == nil || v <= operand(*op.Le)) && (op.Lt == nil || v < operand(*op.Lt))
}

// refAggregate answers a generic aggregate plan over scheds straight from
// the records: every cell keeps its rows, and each value is computed from
// them at the end, a quantile from a sorted copy of the cell's values.
func refAggregate(t *testing.T, p *Plan, every time.Duration, scheds []*cluster.Schedule) *Result {
	t.Helper()
	from, hasFrom, _ := parseBound(p.From)
	to, hasTo, _ := parseBound(p.To)
	var filters []*OpSpec
	var by []string
	var aggs []AggSpec
	var window string
	limit := 0
	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Op {
		case "filter":
			filters = append(filters, op)
		case "group_by":
			by = op.By
		case "window":
			window = op.Size
		case "aggregate":
			aggs = op.Aggs
		case "limit":
			limit = op.N
		}
	}
	type refCell struct {
		bucket   int64
		from, to time.Duration
		group    []string
		tick     int
		rows     []refRow
	}
	cells := map[string]*refCell{}
	var order []*refCell
	res := &Result{Ticks: len(scheds)}
	for tick, s := range scheds {
		lo := time.Duration(tick) * every
		if hasTo && lo >= to {
			break
		}
	rows:
		for _, rw := range refRows(p.Source, tick, every, s) {
			if (hasFrom && rw.t < from) || (hasTo && rw.t >= to) {
				continue
			}
			for _, f := range filters {
				if !refKeep(f, rw) {
					continue rows
				}
			}
			c := refCell{from: from, to: -1}
			if !hasFrom {
				c.from = 0
			}
			if hasTo {
				c.to = to
			}
			switch window {
			case "":
			case "tick":
				c.bucket, c.from, c.to = int64(tick), lo, lo+every
			default:
				d, _ := time.ParseDuration(window)
				c.bucket = int64(rw.t / d)
				c.from = time.Duration(c.bucket) * d
				c.to = c.from + d
			}
			for _, k := range by {
				c.group = append(c.group, rw.str[k])
			}
			key := fmt.Sprintf("%d/%q", c.bucket, c.group)
			have := cells[key]
			if have == nil {
				if limit > 0 && len(order) >= limit {
					res.Truncated = true
					continue
				}
				have = &c
				cells[key] = have
				order = append(order, have)
			}
			have.tick = tick
			have.rows = append(have.rows, rw)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.bucket != b.bucket {
			return a.bucket < b.bucket
		}
		for k := range a.group {
			if a.group[k] != b.group[k] {
				return a.group[k] < b.group[k]
			}
		}
		return false
	})
	for _, c := range order {
		rr := ResultRow{Tick: c.tick, TimeSeconds: c.from.Seconds(), WindowFromSeconds: c.from.Seconds(),
			WindowToSeconds: c.to.Seconds(), Values: map[string]float64{}}
		if c.to < 0 {
			rr.WindowToSeconds = -1
		}
		if len(by) > 0 {
			rr.Group = map[string]string{}
			for i, k := range by {
				rr.Group[k] = c.group[i]
			}
		}
		for _, a := range aggs {
			var vals []float64
			for _, rw := range c.rows {
				if a.Field == "time" {
					vals = append(vals, rw.t.Seconds())
				} else {
					vals = append(vals, rw.num[a.Field])
				}
			}
			rr.Values[a.outName()] = refValue(a.Fn, vals)
		}
		res.Rows = append(res.Rows, rr)
	}
	return res
}

// refValue reduces one cell's values, in arrival order, by fn.
func refValue(fn string, vals []float64) float64 {
	sum, lo, hi := 0.0, vals[0], vals[0]
	for _, v := range vals {
		sum += v
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	switch fn {
	case "count":
		return float64(len(vals))
	case "sum":
		return sum
	case "avg":
		return sum / float64(len(vals))
	case "min":
		return lo
	case "max":
		return hi
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(float64(len(sorted))*aggFns[fn])) - 1
	return sorted[max(0, min(rank, len(sorted)-1))]
}

// aggregatePlans are the generic aggregate plans the differential test
// runs, for a session with control interval every: every reduction,
// group_by on one and two columns, tick and duration windows, filter, map,
// limit after aggregate, and a plan window, over all three sources.
func aggregatePlans(every time.Duration) []string {
	all := `{"fn":"count"},{"fn":"sum","field":"response_seconds"},{"fn":"avg","field":"response_seconds"},` +
		`{"fn":"min","field":"response_seconds"},{"fn":"max","field":"response_seconds"},{"fn":"p50","field":"response_seconds"},` +
		`{"fn":"p90","field":"response_seconds"},{"fn":"p95","field":"response_seconds"},{"fn":"p99","field":"response_seconds"}`
	return []string{
		`{"version":1,"source":"jobs","ops":[{"op":"group_by","by":["tenant"]},{"op":"aggregate","aggs":[` + all + `]}]}`,
		`{"version":1,"source":"jobs","ops":[{"op":"aggregate","aggs":[` + all + `]}]}`,
		`{"version":1,"source":"tasks","ops":[
			{"op":"group_by","by":["tenant","task_kind"]},
			{"op":"window","size":"tick"},
			{"op":"aggregate","aggs":[{"fn":"count"},{"fn":"sum","field":"duration_seconds"},
				{"fn":"p95","field":"duration_seconds"},{"fn":"max","field":"end_seconds"},{"fn":"min","field":"time"}]}]}`,
		fmt.Sprintf(`{"version":1,"source":"tasks","ops":[
			{"op":"filter","field":"outcome","in":["finished","preempted"]},
			{"op":"map","fields":["outcome","tenant","duration_seconds"]},
			{"op":"group_by","by":["tenant","outcome"]},
			{"op":"window","size":%q},
			{"op":"aggregate","aggs":[{"fn":"avg","field":"duration_seconds"},{"fn":"p50","field":"duration_seconds"},{"fn":"p99","field":"time"}]}]}`,
			(every * 2 / 5).String()),
		`{"version":1,"source":"events","ops":[
			{"op":"filter","field":"kind","in":["task-start","task-end"]},
			{"op":"group_by","by":["tenant","job"]},
			{"op":"aggregate","aggs":[{"fn":"count"},{"fn":"sum","field":"delta"},{"fn":"p90","field":"attempt"},{"fn":"max","field":"time"}]}]}`,
		fmt.Sprintf(`{"version":1,"source":"events","ops":[
			{"op":"filter","field":"time","ge":%q,"lt":%q},
			{"op":"group_by","by":["kind"]},
			{"op":"window","size":"tick"},
			{"op":"aggregate","aggs":[{"fn":"count"},{"fn":"p95","field":"deadline_seconds"},{"fn":"sum","field":"completed"}]}]}`,
			(every / 3).String(), (every * 5 / 2).String()),
		fmt.Sprintf(`{"version":1,"source":"jobs","from":%q,"to":%q,"ops":[
			{"op":"filter","field":"completed","ge":"1"},
			{"op":"group_by","by":["tenant"]},
			{"op":"aggregate","aggs":[{"fn":"avg","field":"response_seconds"},{"fn":"p99","field":"response_seconds"},{"fn":"min","field":"deadline_seconds"}]}]}`,
			(every / 2).String(), (every * 5 / 2).String()),
		`{"version":1,"source":"jobs","ops":[
			{"op":"group_by","by":["tenant"]},
			{"op":"aggregate","aggs":[{"fn":"count"},{"fn":"p90","field":"submit_seconds"}]},
			{"op":"limit","n":2}]}`,
	}
}

// TestGenericAggregatesMatchRecords is the differential check of the
// generic aggregates: on multi-tick schedules whose ticks differ, the
// fuzzed ones and a committed golden scenario's observed ones, every
// plan of aggregatePlans answers exactly what refAggregate computes
// straight from the records, compared with Float64bits. The one-shot
// runner is fed through Ingest, as Session.Query feeds it. The standing
// runner is fed through PushTick, and each tick's delta must hold exactly
// the cells that tick touched, valued over the ticks so far, which checks
// every merge of a quantile cell's sorted values.
func TestGenericAggregatesMatchRecords(t *testing.T) {
	type schedSet struct {
		name   string
		every  time.Duration
		scheds []*cluster.Schedule
	}
	var sets []schedSet
	for seed := int64(0); seed < 8; seed++ {
		set := schedSet{name: fmt.Sprintf("fuzzed-%d", seed), every: interval}
		for k := int64(0); k < 4; k++ {
			set.scheds = append(set.scheds, randomSchedule(seed*10+k))
		}
		sets = append(sets, set)
	}
	spec, err := scenario.LoadFile(filepath.Join("..", "scenario", "testdata", "scenarios", "abc-mix.json"))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := scenario.Build(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	golden := schedSet{name: spec.Name, every: rt.Interval}
	for !rt.Done() {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
		golden.scheds = append(golden.scheds, rt.ObservedSchedule(rt.StepsDone()-1))
	}
	sets = append(sets, golden)

	for _, set := range sets {
		for pi, js := range aggregatePlans(set.every) {
			p := mustPlan(t, js)
			oneshot, err := Compile(p, set.every)
			if err != nil {
				t.Fatal(err)
			}
			standing, err := Compile(p, set.every)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range set.scheds {
				if err := oneshot.Ingest(i, s); err != nil {
					t.Fatal(err)
				}
				delta, err := standing.PushTick(i, s)
				if err != nil {
					t.Fatal(err)
				}
				var touched []ResultRow
				for _, rw := range refAggregate(t, p, set.every, set.scheds[:i+1]).Rows {
					if rw.Tick == i {
						touched = append(touched, rw)
					}
				}
				checkRows(t, fmt.Sprintf("%s plan %d tick %d delta", set.name, pi, i), delta, touched)
			}
			want := refAggregate(t, p, set.every, set.scheds)
			for _, side := range []struct {
				name string
				r    *Runner
			}{{"one-shot", oneshot}, {"standing", standing}} {
				got := side.r.Result()
				if got.Ticks != want.Ticks || got.Truncated != want.Truncated {
					t.Fatalf("%s plan %d %s: ticks %d truncated %v, want %d and %v",
						set.name, pi, side.name, got.Ticks, got.Truncated, want.Ticks, want.Truncated)
				}
				checkRows(t, fmt.Sprintf("%s plan %d %s", set.name, pi, side.name), got.Rows, want.Rows)
			}
		}
	}
}

// checkRows fails t unless got and want hold equal rows in the same
// order, values compared bit for bit.
func checkRows(t *testing.T, what string, got, want []ResultRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !rowsEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}
