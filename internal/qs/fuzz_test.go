package qs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/workload"
)

// fuzzSchedule synthesizes a structurally valid task schedule from a seed:
// jobs with random submit/finish times, optional deadlines, and task
// attempts with every outcome kind. It respects the Schedule invariants the
// emulator guarantees (End >= Start, Finish >= Submit for completed jobs)
// without going through a full simulation, so the fuzzer can reach corners
// (empty tenants, all-violated deadlines, zero-length windows) cheaply.
func fuzzSchedule(seed int64, capacity, n int) *cluster.Schedule {
	rng := rand.New(rand.NewSource(seed))
	horizon := time.Hour
	s := &cluster.Schedule{Capacity: capacity, Horizon: horizon}
	tenants := []string{"a", "b", "c"}
	outcomes := []cluster.TaskOutcome{
		cluster.TaskFinished, cluster.TaskPreempted, cluster.TaskFailed,
		cluster.TaskKilled, cluster.TaskTruncated,
	}
	for i := 0; i < n; i++ {
		tenant := tenants[rng.Intn(len(tenants))]
		submit := time.Duration(rng.Int63n(int64(horizon)))
		dur := time.Duration(rng.Int63n(int64(20 * time.Minute)))
		completed := rng.Intn(4) > 0
		job := cluster.JobRecord{
			ID:        fmt.Sprintf("%s-%03d", tenant, i),
			Tenant:    s.AddTenant(tenant),
			Submit:    submit,
			Finish:    submit + dur,
			Completed: completed,
		}
		if rng.Intn(2) == 0 {
			job.Deadline = submit + time.Duration(rng.Int63n(int64(30*time.Minute)))
		}
		s.Jobs = append(s.Jobs, job)
		for k := 0; k < 1+rng.Intn(3); k++ {
			start := submit + time.Duration(rng.Int63n(int64(10*time.Minute)))
			s.Tasks = append(s.Tasks, cluster.TaskRecord{
				Job:     int32(len(s.Jobs) - 1),
				Tenant:  job.Tenant,
				Kind:    workload.TaskKind(rng.Intn(2)),
				Attempt: k + 1,
				Start:   start,
				End:     start + time.Duration(rng.Int63n(int64(10*time.Minute))),
				Outcome: outcomes[rng.Intn(len(outcomes))],
			})
		}
	}
	return s
}

// FuzzQS locks the QS-vector invariants: every predefined metric stays in
// its documented range on arbitrary schedules, EvalAll is shape- and
// order-stable, Pareto dominance is irreflexive and asymmetric, maxRegret
// is non-negative, and the accumulator bit-equals EvalAll on every
// template, on whole-schedule windows and on sub-windows alike.
// zeroEvery > 0 collapses every zeroEvery-th task attempt to zero width;
// cut places a sub-window's end that many nanoseconds before the last
// allocation change (0: exactly at it).
func FuzzQS(f *testing.F) {
	f.Add(int64(1), byte(4), byte(10), 0.25, byte(0), byte(0))
	f.Add(int64(42), byte(1), byte(0), 0.0, byte(0), byte(0))
	f.Add(int64(-7), byte(255), byte(40), 1.5, byte(0), byte(1))
	f.Add(int64(977), byte(16), byte(3), 0.5, byte(0), byte(0))
	f.Add(int64(5), byte(8), byte(30), 0.5, byte(2), byte(1)) // zero-width attempts
	f.Add(int64(6), byte(2), byte(12), 0.0, byte(1), byte(0)) // every attempt zero-width
	f.Add(int64(9), byte(3), byte(20), 0.0, byte(0), byte(0)) // to == last
	f.Fuzz(func(t *testing.T, seed int64, capacity, n byte, slack float64, zeroEvery, cut byte) {
		if slack < 0 || math.IsNaN(slack) || math.IsInf(slack, 0) {
			slack = 0
		}
		cap := int(capacity)
		if cap == 0 {
			cap = 1
		}
		s := fuzzSchedule(seed, cap, int(n))
		if zeroEvery > 0 {
			for i := range s.Tasks {
				if i%int(zeroEvery) == 0 {
					s.Tasks[i].End = s.Tasks[i].Start
				}
			}
		}
		mapKind := workload.Map
		templates := []Template{
			{Queue: "a", Metric: AvgResponseTime},
			{Queue: "a", Metric: DeadlineViolations, Slack: slack},
			{Queue: "b", Metric: Utilization},
			{Metric: Utilization, TaskKind: &mapKind, EffectiveOnly: true},
			{Queue: "c", Metric: Throughput},
			{Queue: "b", Metric: Fairness, DesiredShare: 0.5},
		}
		for _, tpl := range templates {
			if err := tpl.Validate(); err != nil {
				t.Fatalf("template %s invalid: %v", tpl.Name(), err)
			}
		}
		end := s.Horizon + time.Nanosecond
		vec := EvalAll(templates, s, 0, end)
		if len(vec) != len(templates) {
			t.Fatalf("EvalAll returned %d values for %d templates", len(vec), len(templates))
		}
		for i, v := range vec {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("objective %s = %v", templates[i].Name(), v)
			}
		}
		if vec[0] < 0 {
			t.Fatalf("AJR = %v, want >= 0", vec[0])
		}
		if vec[1] < 0 || vec[1] > 1 {
			t.Fatalf("deadline violations = %v, want in [0,1]", vec[1])
		}
		if vec[2] > 0 || vec[3] > 0 {
			t.Fatalf("utilization positive: %v / %v", vec[2], vec[3])
		}
		if vec[4] > 0 {
			t.Fatalf("throughput = %v, want <= 0", vec[4])
		}
		if vec[5] < 0 || vec[5] > 1 {
			t.Fatalf("fairness deviation = %v, want in [0,1]", vec[5])
		}
		// EvalAll must agree with per-template Eval (order stability).
		for i, tpl := range templates {
			if got := tpl.Eval(s, 0, end); got != vec[i] {
				t.Fatalf("EvalAll[%d] = %v but Eval = %v", i, vec[i], got)
			}
		}
		// Dominance: irreflexive, and asymmetric against the half-window
		// vector.
		if Dominates(vec, vec) {
			t.Fatal("vector dominates itself")
		}
		half := EvalAll(templates, s, 0, s.Horizon/2)
		if Dominates(vec, half) && Dominates(half, vec) {
			t.Fatal("dominance is not asymmetric")
		}
		// maxRegret over targeted templates is never negative.
		targeted := make([]Template, len(templates))
		for i, tpl := range templates {
			targeted[i] = tpl.WithTarget(vec[i] - 1 + 2*float64(i%2))
		}
		if r := maxRegret(targeted, vec); r < 0 {
			t.Fatalf("maxRegret = %v, want >= 0", r)
		}
		if r := maxRegret(templates, vec); r != 0 {
			t.Fatalf("maxRegret without targets = %v, want 0", r)
		}
		// The accumulator answers every window by one pass over the
		// records. On the covering window, on one ending cut nanoseconds
		// before the last allocation change and on a mid-run sub-window,
		// every template bit-equals the oracle, and sub-window queries must
		// not move a later whole-window answer.
		acc := Accumulate(templates, s)
		wide := coveringWindow(s)
		checkWindow(t, acc, templates, s, 0, wide)
		var last time.Duration
		for i := range s.Tasks {
			if tk := &s.Tasks[i]; tk.End > tk.Start {
				last = max(last, tk.End)
			}
		}
		checkWindow(t, acc, templates, s, 0, last-time.Duration(cut))
		checkWindow(t, acc, templates, s, s.Horizon/3, s.Horizon/2)
		checkWindow(t, acc, templates, s, 0, wide)
	})
}
