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
		Capacity:    4,
		Horizon:     sec(100),
		TenantNames: []string{"A", "B"},
		Jobs: []cluster.JobRecord{
			{ID: "a1", Tenant: 0, Submit: sec(0), Finish: sec(10), Completed: true},
			{ID: "a2", Tenant: 0, Submit: sec(5), Finish: sec(40), Deadline: sec(30), Completed: true},
			{ID: "b1", Tenant: 1, Submit: sec(20), Finish: sec(70), Completed: true},
		},
		Tasks: []cluster.TaskRecord{
			{Job: 0, Tenant: 0, Kind: workload.Map, Start: sec(0), End: sec(10), Outcome: cluster.TaskFinished},
			{Job: 1, Tenant: 0, Kind: workload.Reduce, Start: sec(10), End: sec(40), Outcome: cluster.TaskFinished},
			{Job: 2, Tenant: 1, Kind: workload.Map, Start: sec(20), End: sec(50), Outcome: cluster.TaskPreempted},
			{Job: 2, Tenant: 1, Kind: workload.Map, Start: sec(50), End: sec(70), Outcome: cluster.TaskFinished},
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
// by (window, group), reproduces the Result of a runner fed the same
// ticks through Ingest alone, as Session.Query feeds it. The ticks differ,
// so a delta that missed a changed cell would show. The service-level SSE
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
		`{"version":1,"source":"tasks","ops":[
			{"op":"window","size":"30s"},
			{"op":"aggregate","aggs":[{"fn":"p50","field":"end_seconds"},{"fn":"max","field":"duration_seconds"}]}]}`,
		`{"version":1,"source":"jobs","ops":[
			{"op":"aggregate","slos":[{"queue":"A","metric":"avg_response_time"},{"queue":"","metric":"throughput"}]}]}`,
	}
	for pi, js := range plans {
		for seed := int64(0); seed < 5; seed++ {
			scheds := []*cluster.Schedule{randomSchedule(seed), tickSchedule(), randomSchedule(seed + 100), randomSchedule(seed + 200)}
			if !checkDeltasReplay(t, mustPlan(t, js), DefaultMaxGroups, scheds...) {
				t.Fatalf("plan %d, seed %d: tripped the cardinality guard", pi, seed)
			}
		}
	}
}

// checkDeltasReplay feeds scheds to one runner through PushTick and to
// another through Ingest alone, and checks that the deltas applied
// last-write-wins (aggregate rows keyed by (window, group), raw and slos
// rows appended in order) reproduce the Ingest runner's Result bit for
// bit, as does the PushTick runner's own Result. When the plan trips the
// cardinality guard it checks that both runners failed alike and returns
// false.
func checkDeltasReplay(t *testing.T, p *Plan, maxGroups int, scheds ...*cluster.Schedule) bool {
	t.Helper()
	stream, err := Compile(p, interval)
	if err != nil {
		t.Fatal(err)
	}
	oneshot, err := Compile(p, interval)
	if err != nil {
		t.Fatal(err)
	}
	stream.maxGroups, oneshot.maxGroups = maxGroups, maxGroups
	var appended []ResultRow
	latest := map[string]ResultRow{}
	for i, s := range scheds {
		rows, errStream := stream.PushTick(i, s)
		errOneshot := oneshot.Ingest(i, s)
		if errStream != nil || errOneshot != nil {
			if errStream == nil || errOneshot == nil || errStream.Error() != errOneshot.Error() {
				t.Fatalf("tick %d: PushTick failed with %v, Ingest with %v", i, errStream, errOneshot)
			}
			return false
		}
		for _, rw := range rows {
			if stream.mode == modeAgg {
				latest[cellIdentity(rw)] = rw
			} else {
				appended = append(appended, rw)
			}
		}
	}
	res, standing := oneshot.Result(), stream.Result()
	if res.Ticks != len(scheds) || standing.Ticks != res.Ticks || standing.Truncated != res.Truncated {
		t.Fatalf("one-shot ticks %d truncated %v, standing ticks %d truncated %v, want %d ticks",
			res.Ticks, res.Truncated, standing.Ticks, standing.Truncated, len(scheds))
	}
	checkRows(t, "standing result against one-shot", standing.Rows, res.Rows)
	if stream.mode == modeAgg {
		if len(latest) != len(res.Rows) {
			t.Fatalf("replay has %d rows, one-shot %d", len(latest), len(res.Rows))
		}
		for _, rw := range res.Rows {
			if got, ok := latest[cellIdentity(rw)]; !ok || !rowsEqual(got, rw) {
				t.Fatalf("one-shot row %+v, replayed %+v", rw, got)
			}
		}
		return true
	}
	checkRows(t, "replayed deltas against one-shot", appended, res.Rows)
	return true
}

// TestGroupKeyInjective checks that cells are keyed by their group values
// and nothing else: group values containing any byte, here the unit
// separator, do not merge distinct groups.
func TestGroupKeyInjective(t *testing.T) {
	s := &cluster.Schedule{Capacity: 1, Horizon: interval, TenantNames: []string{"a", "a\x1fb"}, Jobs: []cluster.JobRecord{
		{ID: "b\x1fc", Tenant: 0, Submit: sec(1), Finish: sec(2), Completed: true},
		{ID: "c", Tenant: 1, Submit: sec(3), Finish: sec(4), Completed: true},
	}}
	r := mustRunner(t, `{"version":1,"source":"events","ops":[
		{"op":"filter","field":"kind","eq":"job-submit"},
		{"op":"group_by","by":["tenant","job"]},
		{"op":"aggregate","aggs":[{"fn":"count"}]}]}`, interval)
	if err := r.Ingest(0, s); err != nil {
		t.Fatal(err)
	}
	rows := r.Result().Rows
	if len(rows) != 2 {
		t.Fatalf("got %d cells, want 2: %+v", len(rows), rows)
	}
	for i, want := range [][2]string{{"a", "b\x1fc"}, {"a\x1fb", "c"}} {
		if g := rows[i].Group; g["tenant"] != want[0] || g["job"] != want[1] || rows[i].Values["count"] != 1 {
			t.Fatalf("cell %d = %+v, want group %q with count 1", i, rows[i], want)
		}
	}
}

// TestOneShotAllocsFlatInRows checks that folding a row allocates
// nothing: a one-shot aggregate over the same cells costs the same
// allocations with ten times the rows. A quantile cell keeps its values,
// so its slice may grow by doubling, a few allocations per cell.
func TestOneShotAllocsFlatInRows(t *testing.T) {
	sched := func(copies int) *cluster.Schedule {
		s := tickSchedule()
		jobs := s.Jobs
		s.Jobs = nil
		for i := 0; i < 20*copies; i++ {
			s.Jobs = append(s.Jobs, jobs...)
		}
		return s
	}
	for _, c := range []struct {
		aggs  string
		slack float64 // allowed extra allocations at 10× the rows
	}{
		{`{"fn":"count"},{"fn":"sum","field":"response_seconds"},{"fn":"avg","field":"response_seconds"},{"fn":"min","field":"submit_seconds"},{"fn":"max","field":"time"}`, 0},
		// Two tenants × two ticks of cells, each of whose value slices
		// grows by at most ceil(log2(10)) = 4 more doublings.
		{`{"fn":"count"},{"fn":"p99","field":"response_seconds"}`, 2 * 2 * 4},
	} {
		p := mustPlan(t, `{"version":1,"source":"jobs","ops":[
			{"op":"filter","field":"completed","eq":"1"},
			{"op":"map","fields":["tenant","submit_seconds","response_seconds"]},
			{"op":"group_by","by":["tenant"]},
			{"op":"window","size":"tick"},
			{"op":"aggregate","aggs":[`+c.aggs+`]}]}`)
		allocs := func(s *cluster.Schedule) float64 {
			return testing.AllocsPerRun(5, func() {
				r, err := Compile(p, interval)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					if err := r.Ingest(i, s); err != nil {
						t.Fatal(err)
					}
				}
				if rows := r.Result().Rows; len(rows) != 4 {
					t.Fatalf("got %d cells, want 4", len(rows))
				}
			})
		}
		one, ten := allocs(sched(1)), allocs(sched(10))
		if ten > one+c.slack {
			t.Errorf("aggs %s: %.0f allocations over 10× the rows, %.0f over 1× (slack %.0f)", c.aggs, ten, one, c.slack)
		}
	}
}

// cellIdentity identifies an aggregate row for last-write-wins replay:
// its window and group.
func cellIdentity(rw ResultRow) string {
	keys := make([]string, 0, len(rw.Group))
	for _, k := range groupKeysSorted(rw.Group) {
		keys = append(keys, k+"="+rw.Group[k])
	}
	return fmt.Sprintf("%v/%v/%q", rw.WindowFromSeconds, rw.WindowToSeconds, keys)
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

// randomSchedule is one fuzzed control interval: up to 30 jobs of three
// tenants, each with up to three task attempts, with uncompleted and
// killed jobs, zero-length attempts and records out of time order.
func randomSchedule(seed int64) *cluster.Schedule {
	outcomes := []cluster.TaskOutcome{cluster.TaskFinished, cluster.TaskPreempted, cluster.TaskFailed, cluster.TaskKilled, cluster.TaskTruncated}
	rng := rand.New(rand.NewSource(seed))
	s := &cluster.Schedule{Capacity: 1 + rng.Intn(8), Horizon: interval}
	for i, n := 0, rng.Intn(30); i < n; i++ {
		tenant := []string{"A", "B", "C"}[rng.Intn(3)]
		submit := time.Duration(rng.Int63n(int64(interval)))
		job := cluster.JobRecord{
			ID: fmt.Sprintf("%s%d", tenant, i), Tenant: s.AddTenant(tenant),
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
				Job: int32(len(s.Jobs) - 1), Tenant: job.Tenant, Kind: workload.TaskKind(rng.Intn(2)), Attempt: k + 1,
				Start: start, End: start + time.Duration(rng.Intn(3))*time.Duration(rng.Int63n(int64(interval/4))),
				Outcome: outcomes[rng.Intn(len(outcomes))],
			})
		}
	}
	return s
}

// TestRawJobsTasksMatchRecords is the differential check of the jobs and
// tasks sources: a raw plan over each returns exactly sched.Jobs /
// sched.Tasks — one row per record, in record order, every column equal to
// the record's field offset into session time — on fuzzed schedules with
// uncompleted jobs, zero-length attempts and records out of time order.
func TestRawJobsTasksMatchRecords(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := randomSchedule(seed)
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
				Strings: map[string]string{"tenant": s.TenantNames[j.Tenant]},
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
				Strings: map[string]string{"tenant": s.TenantNames[a.Tenant], "task_kind": a.Kind.String(), "outcome": a.Outcome.String()},
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
