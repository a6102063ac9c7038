package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/workload"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

// tickSchedule builds one control interval's emulated schedule in local
// time: two tenants, three jobs, four task attempts.
func tickSchedule() *cluster.Schedule {
	return &cluster.Schedule{
		Capacity: 4,
		Horizon:  sec(100),
		Jobs: []cluster.JobRecord{
			{ID: "a1", Tenant: "A", Submit: sec(0), Finish: sec(10), Completed: true},
			{ID: "a2", Tenant: "A", Submit: sec(5), Finish: sec(40), Deadline: sec(30), Completed: true},
			{ID: "b1", Tenant: "B", Submit: sec(20), Finish: sec(70), Completed: true},
		},
		Tasks: []cluster.TaskRecord{
			{JobID: "a1", Tenant: "A", Kind: workload.Map, Start: sec(0), End: sec(10), Outcome: cluster.TaskFinished},
			{JobID: "a2", Tenant: "A", Kind: workload.Reduce, Start: sec(10), End: sec(40), Outcome: cluster.TaskFinished},
			{JobID: "b1", Tenant: "B", Kind: workload.Map, Start: sec(20), End: sec(50), Outcome: cluster.TaskPreempted},
			{JobID: "b1", Tenant: "B", Kind: workload.Map, Start: sec(50), End: sec(70), Outcome: cluster.TaskFinished},
		},
	}
}

func mustPlan(t *testing.T, js string) *Plan {
	t.Helper()
	p, err := ParsePlan(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustRunner(t *testing.T, js string, interval time.Duration) *Runner {
	t.Helper()
	r, err := Compile(mustPlan(t, js), interval)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

const interval = 100 * time.Second

// TestRawFilterMap exercises the streaming path: tick-local times are
// offset into session time, filters and projections apply, and rows come
// out in canonical event order.
func TestRawFilterMap(t *testing.T) {
	r := mustRunner(t, `{"version":1,"source":"events","ops":[
		{"op":"filter","field":"kind","eq":"job-submit"},
		{"op":"filter","field":"tenant","eq":"A"},
		{"op":"map","fields":["tenant","deadline_seconds"]}]}`, interval)
	s := tickSchedule()
	var all []ResultRow
	for i := 0; i < 2; i++ {
		rows, err := r.PushTick(i, s)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, rows...)
	}
	if len(all) != 4 {
		t.Fatalf("got %d rows, want 4 (2 submits × 2 ticks): %+v", len(all), all)
	}
	// Tick 1's copy of job a2 submits at session time 105s.
	last := all[3]
	if last.Tick != 1 || last.TimeSeconds != 105 {
		t.Fatalf("tick-1 row not offset into session time: %+v", last)
	}
	if last.Strings["tenant"] != "A" || last.Values["deadline_seconds"] != 30 {
		t.Fatalf("projection wrong: %+v", last)
	}
	if _, ok := last.Strings["kind"]; ok {
		t.Fatalf("map failed to drop kind column: %+v", last)
	}
	res := r.Result()
	if res.Ticks != 2 || len(res.Rows) != 4 || res.Truncated {
		t.Fatalf("one-shot result disagrees with stream: %+v", res)
	}
}

// TestGroupByAggregate checks the grouped reductions and their
// deterministic output order.
func TestGroupByAggregate(t *testing.T) {
	r := mustRunner(t, `{"version":1,"source":"jobs","ops":[
		{"op":"group_by","by":["tenant"]},
		{"op":"aggregate","aggs":[
			{"fn":"count"},
			{"fn":"avg","field":"response_seconds"},
			{"fn":"max","field":"response_seconds"},
			{"fn":"p50","field":"response_seconds"}]}]}`, interval)
	if _, err := r.PushTick(0, tickSchedule()); err != nil {
		t.Fatal(err)
	}
	res := r.Result()
	if len(res.Rows) != 2 {
		t.Fatalf("got %d groups, want 2: %+v", len(res.Rows), res.Rows)
	}
	a, b := res.Rows[0], res.Rows[1]
	if a.Group["tenant"] != "A" || b.Group["tenant"] != "B" {
		t.Fatalf("groups not sorted by key: %+v", res.Rows)
	}
	// Tenant A: responses 10s and 35s.
	if a.Values["count"] != 2 || a.Values["avg_response_seconds"] != 22.5 ||
		a.Values["max_response_seconds"] != 35 || a.Values["p50_response_seconds"] != 10 {
		t.Fatalf("tenant A aggregates wrong: %+v", a.Values)
	}
	if b.Values["count"] != 1 || b.Values["avg_response_seconds"] != 50 {
		t.Fatalf("tenant B aggregates wrong: %+v", b.Values)
	}
	if a.WindowToSeconds != -1 {
		t.Fatalf("un-windowed aggregate should span the unbounded window, got %+v", a)
	}
}

// TestWindowTick checks per-tick bucketing: each tick opens fresh cells,
// and the delta returned by PushTick covers exactly that tick's bucket.
func TestWindowTick(t *testing.T) {
	r := mustRunner(t, `{"version":1,"source":"tasks","ops":[
		{"op":"group_by","by":["tenant"]},
		{"op":"window","size":"tick"},
		{"op":"aggregate","aggs":[{"fn":"sum","field":"duration_seconds"}]}]}`, interval)
	s := tickSchedule()
	for i := 0; i < 3; i++ {
		rows, err := r.PushTick(i, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("tick %d delta has %d rows, want 2", i, len(rows))
		}
		for _, rw := range rows {
			if rw.WindowFromSeconds != float64(i)*100 || rw.WindowToSeconds != float64(i+1)*100 {
				t.Fatalf("tick %d bucket wrong: %+v", i, rw)
			}
		}
	}
	res := r.Result()
	if len(res.Rows) != 6 {
		t.Fatalf("got %d cells, want 6 (2 tenants × 3 ticks): %+v", len(res.Rows), res.Rows)
	}
}

// TestWindowDuration checks fixed-duration bucketing within a tick.
func TestWindowDuration(t *testing.T) {
	r := mustRunner(t, `{"version":1,"source":"tasks","ops":[
		{"op":"window","size":"50s"},
		{"op":"aggregate","aggs":[{"fn":"count"}]}]}`, interval)
	if _, err := r.PushTick(0, tickSchedule()); err != nil {
		t.Fatal(err)
	}
	res := r.Result()
	// Task starts at 0, 10, 20 (bucket 0) and 50 (bucket 1).
	if len(res.Rows) != 2 {
		t.Fatalf("got %d buckets, want 2: %+v", len(res.Rows), res.Rows)
	}
	if res.Rows[0].Values["count"] != 3 || res.Rows[1].Values["count"] != 1 {
		t.Fatalf("bucket counts wrong: %+v", res.Rows)
	}
	if res.Rows[1].WindowFromSeconds != 50 || res.Rows[1].WindowToSeconds != 100 {
		t.Fatalf("bucket bounds wrong: %+v", res.Rows[1])
	}
}

// TestPlanWindowClipsTicks checks the plan-level [from, to) window: rows
// outside are dropped, ticks wholly past "to" finish the query.
func TestPlanWindowClipsTicks(t *testing.T) {
	r := mustRunner(t, `{"version":1,"source":"events","from":"105s","to":"150s","ops":[
		{"op":"filter","field":"kind","eq":"job-submit"}]}`, interval)
	s := tickSchedule()
	rows0, err := r.PushTick(0, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows0) != 0 {
		t.Fatalf("tick 0 is wholly before the window, got %d rows", len(rows0))
	}
	rows1, err := r.PushTick(1, s)
	if err != nil {
		t.Fatal(err)
	}
	// Submits at session times 100, 105, 120 → only 105 and 120 are inside.
	if len(rows1) != 2 || rows1[0].TimeSeconds != 105 || rows1[1].TimeSeconds != 120 {
		t.Fatalf("window clipping wrong: %+v", rows1)
	}
	rows2, err := r.PushTick(2, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 0 {
		t.Fatalf("tick 2 is past the window, got %d rows", len(rows2))
	}
}

// TestLimitRaw checks first-rows-fast truncation: once the cap is hit
// the runner is done and later ticks cost nothing.
func TestLimitRaw(t *testing.T) {
	r := mustRunner(t, `{"version":1,"source":"events","ops":[{"op":"limit","n":3}]}`, interval)
	s := tickSchedule()
	rows, err := r.PushTick(0, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	rows, err = r.PushTick(1, s)
	if err != nil || len(rows) != 0 {
		t.Fatalf("limit-satisfied runner still emitting: %v, %d rows", err, len(rows))
	}
	res := r.Result()
	if len(res.Rows) != 3 || !res.Truncated {
		t.Fatalf("result not truncated at the limit: %+v", res)
	}
}

// TestLimitGroups checks the aggregate-mode reading of limit: a cap on
// first-seen distinct groups, with admitted groups still updating.
func TestLimitGroups(t *testing.T) {
	r := mustRunner(t, `{"version":1,"source":"tasks","ops":[
		{"op":"group_by","by":["tenant"]},
		{"op":"aggregate","aggs":[{"fn":"count"}]},
		{"op":"limit","n":1}]}`, interval)
	for i := 0; i < 2; i++ {
		if _, err := r.PushTick(i, tickSchedule()); err != nil {
			t.Fatal(err)
		}
	}
	res := r.Result()
	if len(res.Rows) != 1 || !res.Truncated {
		t.Fatalf("group cap not applied: %+v", res)
	}
	// Tenant A is first-seen (earliest task start) and keeps accumulating
	// across ticks even though B's rows are being dropped.
	if res.Rows[0].Group["tenant"] != "A" || res.Rows[0].Values["count"] != 4 {
		t.Fatalf("admitted group wrong: %+v", res.Rows[0])
	}
}

// TestMaxGroupsGuard checks the runtime cardinality guard.
func TestMaxGroupsGuard(t *testing.T) {
	r := mustRunner(t, `{"version":1,"source":"events","ops":[
		{"op":"group_by","by":["job"]},
		{"op":"aggregate","aggs":[{"fn":"count"}]}]}`, interval)
	r.maxGroups = 2
	_, err := r.PushTick(0, tickSchedule())
	if err == nil || !strings.Contains(err.Error(), "exceeds 2 distinct") {
		t.Fatalf("got %v, want group-cap error", err)
	}
}

// TestOutOfOrderTick checks the sequencing contract.
func TestOutOfOrderTick(t *testing.T) {
	r := mustRunner(t, `{"version":1,"source":"events"}`, interval)
	if _, err := r.PushTick(1, tickSchedule()); err == nil {
		t.Fatal("out-of-order tick accepted")
	}
}

// TestDeltasReplayToOneShot is the subscription/one-shot agreement at
// the runner level: applying every PushTick delta last-write-wins, keyed
// by (window, group), reproduces Result exactly. The service-level SSE
// test rides on this same property over HTTP.
func TestDeltasReplayToOneShot(t *testing.T) {
	plans := []string{
		`{"version":1,"source":"jobs","ops":[
			{"op":"group_by","by":["tenant"]},
			{"op":"aggregate","aggs":[{"fn":"count"},{"fn":"p99","field":"response_seconds"}]}]}`,
		`{"version":1,"source":"tasks","ops":[
			{"op":"group_by","by":["tenant","task_kind"]},
			{"op":"window","size":"tick"},
			{"op":"aggregate","aggs":[{"fn":"sum","field":"duration_seconds"}]}]}`,
		`{"version":1,"source":"events","from":"50s","to":"250s","ops":[
			{"op":"filter","field":"kind","eq":"task-end"}]}`,
	}
	for pi, js := range plans {
		stream := mustRunner(t, js, interval)
		oneshot := mustRunner(t, js, interval)
		s := tickSchedule()
		replay := map[string]ResultRow{}
		var order []string
		for i := 0; i < 3; i++ {
			rows, err := stream.PushTick(i, s)
			if err != nil {
				t.Fatal(err)
			}
			for j, rw := range rows {
				key := rowKey(rw, i, j)
				if _, seen := replay[key]; !seen {
					order = append(order, key)
				}
				replay[key] = rw
			}
			if _, err := oneshot.PushTick(i, s); err != nil {
				t.Fatal(err)
			}
		}
		res := oneshot.Result()
		if len(res.Rows) != len(order) {
			t.Fatalf("plan %d: replay has %d rows, one-shot %d", pi, len(order), len(res.Rows))
		}
		// The one-shot result must be exactly the replayed final states
		// (ordering aside); index replay rows by their identity key.
		for _, rw := range res.Rows {
			key := rowIdentity(rw)
			found := false
			for _, k := range order {
				got := replay[k]
				if rowIdentity(got) == key && rowsEqual(got, rw) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("plan %d: one-shot row %+v missing from replayed deltas", pi, rw)
			}
		}
	}
}

// rowKey identifies a delta row for last-write-wins replay: aggregate
// rows by (window, group), raw rows by their emission identity.
func rowKey(rw ResultRow, tick, j int) string {
	if rw.Group != nil {
		return rowIdentity(rw)
	}
	return fmt.Sprintf("raw/%d/%d", tick, j)
}

func rowIdentity(rw ResultRow) string {
	if rw.Group == nil {
		return fmt.Sprintf("raw/%d/%v/%v/%v", rw.Tick, rw.TimeSeconds, rw.Strings, rw.Values)
	}
	keys := make([]string, 0, len(rw.Group))
	for _, k := range groupKeysSorted(rw.Group) {
		keys = append(keys, k+"="+rw.Group[k])
	}
	return fmt.Sprintf("agg/%v/%v/%s", rw.WindowFromSeconds, rw.WindowToSeconds, strings.Join(keys, ","))
}

// groupKeysSorted returns the map's keys in sorted order (tests live in
// the determinism-locked package, so no bare map-range ordering leaks).
func groupKeysSorted(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func rowsEqual(a, b ResultRow) bool {
	if a.Tick != b.Tick || a.TimeSeconds != b.TimeSeconds ||
		a.WindowFromSeconds != b.WindowFromSeconds || a.WindowToSeconds != b.WindowToSeconds ||
		len(a.Group) != len(b.Group) || len(a.Strings) != len(b.Strings) || len(a.Values) != len(b.Values) {
		return false
	}
	for _, k := range groupKeysSorted(a.Group) {
		if b.Group[k] != a.Group[k] {
			return false
		}
	}
	for _, k := range groupKeysSorted(a.Strings) {
		if b.Strings[k] != a.Strings[k] {
			return false
		}
	}
	for k, v := range a.Values {
		if math.Float64bits(b.Values[k]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// TestRawJobsTasksMatchRecords is the differential check of the jobs and
// tasks sources: a raw plan over each returns exactly sched.Jobs /
// sched.Tasks — one row per record, in record order, every column equal to
// the record's field offset into session time — on fuzzed schedules with
// uncompleted jobs, zero-length attempts and records out of time order.
func TestRawJobsTasksMatchRecords(t *testing.T) {
	outcomes := []cluster.TaskOutcome{cluster.TaskFinished, cluster.TaskPreempted, cluster.TaskFailed, cluster.TaskKilled, cluster.TaskTruncated}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := &cluster.Schedule{Capacity: 1 + rng.Intn(8), Horizon: interval}
		for i, n := 0, rng.Intn(30); i < n; i++ {
			tenant := []string{"A", "B", "C"}[rng.Intn(3)]
			submit := time.Duration(rng.Int63n(int64(interval)))
			job := cluster.JobRecord{
				ID: fmt.Sprintf("%s%d", tenant, i), Tenant: tenant,
				Submit: submit, Finish: submit + time.Duration(rng.Int63n(int64(interval))),
				Completed: rng.Intn(3) > 0, Killed: rng.Intn(8) == 0,
			}
			if rng.Intn(2) == 0 {
				job.Deadline = time.Duration(rng.Int63n(int64(interval)))
			}
			s.Jobs = append(s.Jobs, job)
			for k, m := 0, rng.Intn(4); k < m; k++ {
				start := submit + time.Duration(rng.Int63n(int64(interval/2)))
				s.Tasks = append(s.Tasks, cluster.TaskRecord{
					JobID: job.ID, Tenant: tenant, Kind: workload.TaskKind(rng.Intn(2)), Attempt: k + 1,
					Start: start, End: start + time.Duration(rng.Intn(3))*time.Duration(rng.Int63n(int64(interval/4))),
					Outcome: outcomes[rng.Intn(len(outcomes))],
				})
			}
		}
		const tick = 1 // a non-zero tick, so the session-time offset is exercised
		lo := tick * interval
		push := func(source string) []ResultRow {
			r := mustRunner(t, `{"version":1,"source":"`+source+`"}`, interval)
			if _, err := r.PushTick(0, &cluster.Schedule{Capacity: 1, Horizon: interval}); err != nil {
				t.Fatal(err)
			}
			rows, err := r.PushTick(tick, s)
			if err != nil {
				t.Fatal(err)
			}
			return rows
		}
		b2f := map[bool]float64{true: 1}

		jobs := push("jobs")
		if len(jobs) != len(s.Jobs) {
			t.Fatalf("seed %d: %d job rows for %d records", seed, len(jobs), len(s.Jobs))
		}
		for i, j := range s.Jobs {
			want := ResultRow{
				Tick: tick, TimeSeconds: (lo + j.Submit).Seconds(),
				WindowFromSeconds: lo.Seconds(), WindowToSeconds: (lo + interval).Seconds(),
				Strings: map[string]string{"tenant": j.Tenant},
				Values: map[string]float64{
					"submit_seconds":   (lo + j.Submit).Seconds(),
					"finish_seconds":   (lo + j.Finish).Seconds(),
					"response_seconds": (j.Finish - j.Submit).Seconds(),
					"deadline_seconds": j.Deadline.Seconds(),
					"completed":        b2f[j.Completed],
				},
			}
			if !reflect.DeepEqual(jobs[i], want) {
				t.Fatalf("seed %d: job row %d = %+v, want record %+v as %+v", seed, i, jobs[i], j, want)
			}
		}

		tasks := push("tasks")
		if len(tasks) != len(s.Tasks) {
			t.Fatalf("seed %d: %d task rows for %d records", seed, len(tasks), len(s.Tasks))
		}
		for i, a := range s.Tasks {
			want := ResultRow{
				Tick: tick, TimeSeconds: (lo + a.Start).Seconds(),
				WindowFromSeconds: lo.Seconds(), WindowToSeconds: (lo + interval).Seconds(),
				Strings: map[string]string{"tenant": a.Tenant, "task_kind": a.Kind.String(), "outcome": a.Outcome.String()},
				Values: map[string]float64{
					"start_seconds":    (lo + a.Start).Seconds(),
					"end_seconds":      (lo + a.End).Seconds(),
					"duration_seconds": (a.End - a.Start).Seconds(),
				},
			}
			if !reflect.DeepEqual(tasks[i], want) {
				t.Fatalf("seed %d: task row %d = %+v, want record %+v as %+v", seed, i, tasks[i], a, want)
			}
		}
	}
}
