package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tempo/internal/workload"
)

// eventsSchedule synthesizes a structurally valid schedule from a seed,
// covering the corners the emulator rarely produces (zero-length attempts,
// incomplete jobs, identical timestamps, every outcome kind).
func eventsSchedule(seed int64, capacity, n int) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Capacity: capacity, Horizon: time.Hour}
	tenants := []string{"a", "b", "c"}
	outcomes := []TaskOutcome{TaskFinished, TaskPreempted, TaskFailed, TaskKilled, TaskTruncated}
	for i := 0; i < n; i++ {
		tenant := tenants[rng.Intn(len(tenants))]
		submit := time.Duration(rng.Int63n(int64(time.Hour)))
		dur := time.Duration(rng.Int63n(int64(20 * time.Minute)))
		job := JobRecord{
			ID:        fmt.Sprintf("%s-%03d", tenant, i),
			Tenant:    s.AddTenant(tenant),
			Submit:    submit,
			Finish:    submit + dur,
			Completed: rng.Intn(4) > 0,
			Killed:    rng.Intn(10) == 0,
		}
		if rng.Intn(2) == 0 {
			job.Deadline = submit + time.Duration(rng.Int63n(int64(30*time.Minute)))
		}
		s.Jobs = append(s.Jobs, job)
		for k := 0; k < 1+rng.Intn(3); k++ {
			start := submit + time.Duration(rng.Int63n(int64(10*time.Minute)))
			end := start
			if rng.Intn(8) > 0 { // leave some zero-length attempts
				end = start + time.Duration(rng.Int63n(int64(10*time.Minute)))
			}
			s.Tasks = append(s.Tasks, TaskRecord{
				Job:     int32(len(s.Jobs) - 1),
				Tenant:  job.Tenant,
				Kind:    workload.TaskKind(rng.Intn(2)),
				Attempt: k + 1,
				Start:   start,
				End:     end,
				Outcome: outcomes[rng.Intn(len(outcomes))],
			})
		}
	}
	return s
}

// eventLess is the canonical strict ordering of the stream that Events
// documents.
func eventLess(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Seq < b.Seq
}

// checkEventStream asserts the two stream invariants on one schedule: the
// stream is strictly totally ordered under eventLess, and allocation
// deltas sum to zero with a never-negative running count (globally and per
// tenant).
func checkEventStream(t *testing.T, s *Schedule) {
	t.Helper()
	events := s.Events()
	if want := 2*len(s.Jobs) + 2*len(s.Tasks); len(events) != want {
		t.Fatalf("got %d events, want %d", len(events), want)
	}
	running := 0
	perTenant := map[string]int{}
	for i := range events {
		if i > 0 {
			prev, cur := &events[i-1], &events[i]
			if !eventLess(prev, cur) {
				t.Fatalf("stream not strictly ordered at %d: %+v !< %+v", i, *prev, *cur)
			}
			if eventLess(cur, prev) {
				t.Fatalf("eventLess not antisymmetric at %d", i)
			}
		}
		ev := &events[i]
		switch ev.Kind {
		case EventTaskStart:
			if ev.Delta != +1 {
				t.Fatalf("task-start delta %d", ev.Delta)
			}
		case EventTaskEnd:
			if ev.Delta != -1 {
				t.Fatalf("task-end delta %d", ev.Delta)
			}
		default:
			if ev.Delta != 0 {
				t.Fatalf("%s delta %d", ev.Kind, ev.Delta)
			}
		}
		running += ev.Delta
		perTenant[ev.Tenant] += ev.Delta
		if running < 0 {
			t.Fatalf("running allocation went negative at event %d (%+v)", i, *ev)
		}
		if perTenant[ev.Tenant] < 0 {
			t.Fatalf("tenant %s allocation went negative at event %d", ev.Tenant, i)
		}
	}
	if running != 0 {
		t.Fatalf("allocation deltas sum to %d, want 0", running)
	}
	for tenant, n := range perTenant {
		if n != 0 {
			t.Fatalf("tenant %s deltas sum to %d, want 0", tenant, n)
		}
	}
}

// TestEventsEmulatedSchedule locks the stream invariants on a real emulated
// schedule, where task handoffs at identical instants are common.
func TestEventsEmulatedSchedule(t *testing.T) {
	profiles := []workload.TenantProfile{
		workload.DeadlineDriven("deadline", 1.5),
		workload.BestEffort("besteffort", 1.2),
	}
	trace, err := workload.Generate(profiles, workload.GenerateOptions{Horizon: 2 * time.Hour, Seed: 7, Name: "events"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TotalContainers: 24, Tenants: map[string]TenantConfig{
		"deadline":   {Weight: 2, MinShare: 4, SharePreemptTimeout: time.Minute},
		"besteffort": {Weight: 1},
	}}
	sched, err := Run(trace, cfg, Options{Horizon: 2 * time.Hour, Noise: DefaultNoise(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Tasks) == 0 {
		t.Fatal("emulated schedule has no tasks")
	}
	checkEventStream(t, sched)
}

// TestEventsEmptySchedule covers the degenerate stream.
func TestEventsEmptySchedule(t *testing.T) {
	s := &Schedule{Capacity: 4, Horizon: time.Minute}
	if got := s.Events(); len(got) != 0 {
		t.Fatalf("empty schedule produced %d events", len(got))
	}
	checkEventStream(t, s)
}

// TestScheduleEqualSensitivity spot-checks that every record field feeds
// Equal: flipping any one field must break it.
func TestScheduleEqualSensitivity(t *testing.T) {
	base := eventsSchedule(11, 8, 6)
	mutations := []func(*Schedule){
		func(s *Schedule) { s.Capacity++ },
		func(s *Schedule) { s.Horizon += time.Second },
		func(s *Schedule) { s.Jobs[0].Submit += time.Nanosecond },
		func(s *Schedule) { s.Jobs[0].Finish += time.Nanosecond },
		func(s *Schedule) { s.Jobs[0].Deadline += time.Second },
		func(s *Schedule) { s.Jobs[0].Completed = !s.Jobs[0].Completed },
		func(s *Schedule) { s.Jobs[0].Killed = !s.Jobs[0].Killed },
		func(s *Schedule) { s.Jobs[0].Tenant = s.AddTenant(s.TenantNames[s.Jobs[0].Tenant] + "x") },
		func(s *Schedule) { s.Tasks[0].Tenant = s.AddTenant(s.TenantNames[s.Tasks[0].Tenant] + "x") },
		func(s *Schedule) { s.Tasks[0].Job = 1 },
		func(s *Schedule) { s.Tasks[0].Kind ^= 1 },
		func(s *Schedule) { s.Tasks[0].Start += time.Nanosecond },
		func(s *Schedule) { s.Tasks[0].End += time.Nanosecond },
		func(s *Schedule) { s.Tasks[0].Outcome = TaskPreempted },
		func(s *Schedule) { s.Tasks[0].Attempt++ },
		func(s *Schedule) { s.Tasks = s.Tasks[:len(s.Tasks)-1] },
	}
	for i, mutate := range mutations {
		m := &Schedule{
			Capacity:    base.Capacity,
			Horizon:     base.Horizon,
			TenantNames: slices.Clone(base.TenantNames),
			Jobs:        slices.Clone(base.Jobs),
			Tasks:       slices.Clone(base.Tasks),
		}
		mutate(m)
		if m.Equal(base) {
			t.Errorf("mutation %d left Equal true", i)
		}
	}
}

// FuzzScheduleEvents asserts, for arbitrary structurally valid schedules,
// that the event stream is totally ordered and that allocation deltas sum
// to zero (with a never-negative running count).
func FuzzScheduleEvents(f *testing.F) {
	f.Add(int64(1), byte(8), byte(12))
	f.Add(int64(42), byte(1), byte(0))
	f.Add(int64(-7), byte(255), byte(40))
	f.Add(int64(977), byte(16), byte(3))
	f.Fuzz(func(t *testing.T, seed int64, capacity, n byte) {
		cap := int(capacity)
		if cap == 0 {
			cap = 1
		}
		checkEventStream(t, eventsSchedule(seed, cap, int(n)))
	})
}
