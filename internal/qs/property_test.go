package qs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/workload"
)

// randomSchedule builds a synthetic schedule with arbitrary (consistent)
// job and task records.
func randomSchedule(rng *rand.Rand) *cluster.Schedule {
	// Capacity exceeds any possible concurrency of the generated records
	// (≤ 20 jobs × 4 tasks) so utilization fractions stay in [0, 1].
	s := &cluster.Schedule{Capacity: 80 + rng.Intn(20), Horizon: time.Hour}
	tenants := []string{"A", "B", "C"}[:1+rng.Intn(3)]
	n := 1 + rng.Intn(20)
	for i := 0; i < n; i++ {
		tenant := tenants[rng.Intn(len(tenants))]
		submit := time.Duration(rng.Intn(1800)) * time.Second
		dur := time.Duration(1+rng.Intn(1800)) * time.Second
		j := cluster.JobRecord{
			ID:        jobName(i),
			Tenant:    s.AddTenant(tenant),
			Submit:    submit,
			Finish:    submit + dur,
			Completed: rng.Float64() < 0.8,
		}
		if rng.Intn(2) == 0 {
			j.Deadline = submit + time.Duration(rng.Intn(2000))*time.Second
		}
		s.Jobs = append(s.Jobs, j)
		tasks := 1 + rng.Intn(4)
		for k := 0; k < tasks; k++ {
			start := submit + time.Duration(rng.Intn(60))*time.Second
			end := start + time.Duration(1+rng.Intn(int(dur/time.Second)+1))*time.Second
			outcome := cluster.TaskFinished
			if rng.Intn(5) == 0 {
				outcome = cluster.TaskPreempted
			}
			kind := workload.Map
			if rng.Intn(3) == 0 {
				kind = workload.Reduce
			}
			s.Tasks = append(s.Tasks, cluster.TaskRecord{
				Job: int32(len(s.Jobs) - 1), Tenant: j.Tenant, Kind: kind,
				Start: start, End: end, Outcome: outcome,
			})
		}
	}
	return s
}

func jobName(i int) string {
	return "job-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

// Property: QS_DL is always a fraction in [0, 1] and QS_AJR is never
// negative.
func TestPropertyMetricRanges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchedule(rng)
		for _, tenant := range append(s.Tenants(), "") {
			if tenant != "" {
				ajr := Template{Queue: tenant, Metric: AvgResponseTime}.Eval(s, 0, 2*time.Hour)
				if ajr < 0 {
					return false
				}
				dl := Template{Queue: tenant, Metric: DeadlineViolations, Slack: rng.Float64()}.Eval(s, 0, 2*time.Hour)
				if dl < 0 || dl > 1 {
					return false
				}
			}
			util := Template{Queue: tenant, Metric: Utilization}.Eval(s, 0, 2*time.Hour)
			if util > 0 || util < -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-tenant utilization sums to cluster-wide utilization.
func TestPropertyUtilizationAdditive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchedule(rng)
		var sum float64
		for _, tenant := range s.Tenants() {
			sum += Template{Queue: tenant, Metric: Utilization}.Eval(s, 0, 2*time.Hour)
		}
		all := Template{Metric: Utilization}.Eval(s, 0, 2*time.Hour)
		return math.Abs(sum-all) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: increasing QS_DL slack never increases the violation fraction
// (monotone forgiveness).
func TestPropertySlackMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchedule(rng)
		for _, tenant := range s.Tenants() {
			prev := math.Inf(1)
			for _, slack := range []float64{0, 0.25, 0.5, 1, 2} {
				v := Template{Queue: tenant, Metric: DeadlineViolations, Slack: slack}.Eval(s, 0, 2*time.Hour)
				if v > prev+1e-12 {
					return false
				}
				prev = v
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: throughput of disjoint windows sums to throughput of the union
// (for windows that split at a point where no job straddles completion —
// we use half-open windows so this holds unconditionally for QS_THR since
// each job is counted by its submit-and-finish containment).
func TestPropertyThroughputWindowSuperset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchedule(rng)
		for _, tenant := range s.Tenants() {
			whole := -Template{Queue: tenant, Metric: Throughput}.Eval(s, 0, 2*time.Hour)
			half := -Template{Queue: tenant, Metric: Throughput}.Eval(s, 0, time.Hour)
			if half > whole {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling priority scales the QS value linearly.
func TestPropertyPriorityLinear(t *testing.T) {
	f := func(seed int64, pr8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchedule(rng)
		priority := 0.5 + float64(pr8%50)/10
		for _, tenant := range s.Tenants() {
			base := Template{Queue: tenant, Metric: AvgResponseTime}.Eval(s, 0, 2*time.Hour)
			scaled := Template{Queue: tenant, Metric: AvgResponseTime, Priority: priority}.Eval(s, 0, 2*time.Hour)
			if math.Abs(scaled-priority*base) > 1e-9*(1+math.Abs(base)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dominates is a strict partial order — irreflexive and
// antisymmetric; and maxRegret is zero exactly when all constrained
// values meet their targets.
func TestPropertyDominanceOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(5)
		mk := func() []float64 {
			v := make([]float64, k)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			return v
		}
		a, b := mk(), mk()
		if Dominates(a, a) {
			return false
		}
		if Dominates(a, b) && Dominates(b, a) {
			return false
		}
		var tpls []Template
		vals := make([]float64, k)
		allMet := true
		for i := 0; i < k; i++ {
			tpl := Template{Queue: "q", Metric: AvgResponseTime}
			if rng.Intn(2) == 0 {
				tpl = tpl.WithTarget(rng.NormFloat64())
			}
			tpls = append(tpls, tpl)
			vals[i] = rng.NormFloat64()
			if tpl.HasTarget && vals[i] > tpl.Target {
				allMet = false
			}
		}
		regret := maxRegret(tpls, vals)
		if allMet != (regret == 0) {
			return false
		}
		return regret >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
