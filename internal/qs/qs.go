// Package qs implements Tempo's Quantitative SLO metrics (§5): loss
// functions over the task schedule whose minimization improves the
// corresponding SLO. It also provides the declarative QS templates tenants
// use to register SLOs (§5.2).
//
// Metrics are evaluated over an interval [From, To): following the paper,
// the job set Ji for tenant i is the jobs submitted AND completed inside
// the interval, and utilization integrates container allocation over the
// interval's length L.
//
// # Interval convention
//
// Every window is half-open: [From, To). A job belongs to the window's job
// set Ji iff From <= Submit < To AND Finish < To — a job finishing exactly
// at To is excluded, uniformly across the response-time, deadline, and
// throughput metrics and across both evaluation paths (the full-recompute
// oracle in this file and the compiled plan in incremental.go).
// Allocation integrals clip task intervals to [From, To) the same way: a
// container occupied on [a, To) counts up to To, one occupied from To on
// counts nothing. Callers that want jobs finishing exactly at the horizon
// included therefore evaluate over [0, Horizon+1ns), as the control loop
// does. TestIntervalEdgeConvention locks this behaviour for both paths.
//
// Two evaluation paths compute the same metrics from the same records
// (cluster.Schedule.Jobs / Tasks): Template.Eval / EvalAll scan every
// record per template (the reference oracle), while a plan compiles the
// templates into their distinct filters and answers any window in one
// pass over the records, feeding each record to the filters of its tenant
// and of all tenants. Compile picks between them by template count and
// returns a set any schedule can be evaluated with; EvalStream compiles
// and evaluates once. The two are bit-identical on every window.
package qs

import (
	"fmt"
	"math"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/workload"
)

// Kind names a QS metric definition.
type Kind string

// The predefined QS metric kinds of §5.1.
const (
	// AvgResponseTime is QS_AJR (eq. 1): mean job response time, seconds.
	AvgResponseTime Kind = "avg_response_time"
	// DeadlineViolations is QS_DL (eq. 2): the fraction of deadline jobs
	// finishing later than deadline + slack·(job duration).
	DeadlineViolations Kind = "deadline_violations"
	// Utilization is QS_UTIL (eq. 3): negative fraction of cluster
	// capacity the tenant used over the interval (more usage = lower QS).
	Utilization Kind = "utilization"
	// Throughput is QS_THR (eq. 4): negative count of completed jobs.
	Throughput Kind = "throughput"
	// Fairness is QS_FAIR: deviation of the tenant's achieved share of
	// total usage from its desired share. The paper prints this metric as
	// −|ci + QS_UTIL|; minimizing that expression as written would reward
	// deviation, so we implement the evidently intended |ci − usage
	// share|, which is minimized at perfect long-term fairness.
	Fairness Kind = "fairness"
)

// Valid reports whether k names a known metric.
func (k Kind) Valid() bool {
	switch k {
	case AvgResponseTime, DeadlineViolations, Utilization, Throughput, Fairness:
		return true
	}
	return false
}

// Template declaratively specifies one SLO as in §5.2: a queue, a metric
// definition, metric parameters, and an optional priority weight.
type Template struct {
	// Queue is the tenant whose workload the SLO covers.
	Queue string `json:"queue"`
	// Metric selects the QS definition.
	Metric Kind `json:"metric"`
	// Slack is QS_DL's tolerance γ: a job violates its deadline only if it
	// finishes later than deadline + Slack·(response time).
	Slack float64 `json:"slack,omitempty"`
	// DesiredShare is QS_FAIR's target fraction ci of total usage.
	DesiredShare float64 `json:"desired_share,omitempty"`
	// EffectiveOnly makes QS_UTIL count only attempts that finished,
	// excluding preempted/failed work — the "effective utilization" of
	// Figure 1.
	EffectiveOnly bool `json:"effective_only,omitempty"`
	// TaskKind, when non-nil, restricts QS_UTIL to map or reduce
	// containers (the UTIL_MAP / UTIL_RED split of Figure 9).
	TaskKind *workload.TaskKind `json:"task_kind,omitempty"`
	// Priority multiplies the QS value (§5.2(d), §6.1); zero means 1.
	Priority float64 `json:"priority,omitempty"`
	// Target, when HasTarget, is the constraint bound r_i of problem
	// (SP1). SLOs without explicit targets are "best-effort": the control
	// loop uses the currently observed value as a ratcheting target.
	Target    float64 `json:"target,omitempty"`
	HasTarget bool    `json:"has_target,omitempty"`
}

// Name returns a compact human-readable identifier.
func (t Template) Name() string {
	suffix := ""
	if t.TaskKind != nil {
		suffix = "_" + t.TaskKind.String()
	}
	return fmt.Sprintf("%s/%s%s", t.Queue, t.Metric, suffix)
}

// Validate checks the template's parameters. An empty queue is allowed for
// Utilization and Throughput, where it means "cluster-wide" (Figure 9's
// UTIL_MAP / UTIL_RED are cluster-level SLOs); per-tenant metrics require a
// queue.
func (t Template) Validate() error {
	if t.Queue == "" && t.Metric != Utilization && t.Metric != Throughput {
		return fmt.Errorf("qs: template with empty queue")
	}
	if !t.Metric.Valid() {
		return fmt.Errorf("qs: unknown metric kind %q", t.Metric)
	}
	if t.Slack < 0 {
		return fmt.Errorf("qs: negative slack %g", t.Slack)
	}
	if t.Priority < 0 {
		return fmt.Errorf("qs: negative priority %g", t.Priority)
	}
	if t.Metric == Fairness && (t.DesiredShare < 0 || t.DesiredShare > 1) {
		return fmt.Errorf("qs: desired share %g outside [0,1]", t.DesiredShare)
	}
	return nil
}

// WithTarget returns a copy of the template with the constraint bound set.
func (t Template) WithTarget(r float64) Template {
	t.Target = r
	t.HasTarget = true
	return t
}

// Eval computes the QS value over [from, to) of the schedule.
func (t Template) Eval(s *cluster.Schedule, from, to time.Duration) float64 {
	priority := t.Priority
	if priority == 0 {
		priority = 1
	}
	var v float64
	switch t.Metric {
	case AvgResponseTime:
		v = avgResponse(s, t.Queue, from, to)
	case DeadlineViolations:
		v = deadlineViolations(s, t.Queue, t.Slack, from, to)
	case Utilization:
		v = -usedFraction(s, t.Queue, t.TaskKind, t.EffectiveOnly, from, to)
	case Throughput:
		v = -float64(countCompletedJobs(s, t.Queue, from, to))
	case Fairness:
		total := usedFraction(s, "", nil, false, from, to)
		mine := usedFraction(s, t.Queue, nil, false, from, to)
		if total <= 0 {
			v = 0
		} else {
			v = math.Abs(t.DesiredShare - mine/total)
		}
	default:
		v = math.NaN()
	}
	return priority * v
}

// ClipWindow clips the query window [from, to) to the control interval
// [lo, lo+interval), which the window must overlap, and returns the
// clipped bounds relative to lo plus evalTo, the upper bound to evaluate
// that interval's observed schedule with. A window that covers the
// interval to its end means "this whole observation": evalTo then extends
// the half-open bound past the schedule horizon so records ending exactly
// at the horizon count, matching the convention the control loop
// evaluates observed schedules with.
func ClipWindow(from, to, lo, interval, horizon time.Duration) (localFrom, localTo, evalTo time.Duration) {
	localFrom = max(from, lo) - lo
	localTo = min(to, lo+interval) - lo
	evalTo = localTo
	if localTo >= interval {
		evalTo = horizon + time.Nanosecond
	}
	return localFrom, localTo, evalTo
}

// EvalAll evaluates every template over the same interval, producing the
// QS vector f(x; w) the optimizer consumes. It rescans all records once
// per template — O(k·(jobs+tasks)) — and serves as the reference oracle
// for the compiled path (Compile, EvalStream), which production callers
// use.
func EvalAll(templates []Template, s *cluster.Schedule, from, to time.Duration) []float64 {
	out := make([]float64, len(templates))
	for i, t := range templates {
		out[i] = t.Eval(s, from, to)
	}
	return out
}

// inJobSet reports whether j belongs to tenant i's job set Ji for the
// interval: submitted and completed within [from, to). ti is the tenant's
// index in the schedule's table (see cluster.Schedule.TenantIndex).
func inJobSet(j *cluster.JobRecord, tenant string, ti int32, from, to time.Duration) bool {
	if tenant != "" && j.Tenant != ti {
		return false
	}
	return j.Completed && j.Submit >= from && j.Submit < to && j.Finish < to
}

// countCompletedJobs sizes tenant i's job set Ji without materializing it.
func countCompletedJobs(s *cluster.Schedule, tenant string, from, to time.Duration) int {
	ti := s.TenantIndex(tenant)
	n := 0
	for i := range s.Jobs {
		if inJobSet(&s.Jobs[i], tenant, ti, from, to) {
			n++
		}
	}
	return n
}

// avgResponse implements eq. (1). The scan streams over the records in
// order — the same summation order the set-materializing formulation had —
// so results are bit-identical without building the job set.
func avgResponse(s *cluster.Schedule, tenant string, from, to time.Duration) float64 {
	ti := s.TenantIndex(tenant)
	n := 0
	var sum float64
	for i := range s.Jobs {
		j := &s.Jobs[i]
		if !inJobSet(j, tenant, ti, from, to) {
			continue
		}
		n++
		sum += (j.Finish - j.Submit).Seconds()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// deadlineViolations implements eq. (2) with slack γ. Jobs without
// deadlines are excluded from the denominator.
func deadlineViolations(s *cluster.Schedule, tenant string, slack float64, from, to time.Duration) float64 {
	ti := s.TenantIndex(tenant)
	n, violated := 0, 0
	for i := range s.Jobs {
		j := &s.Jobs[i]
		if !inJobSet(j, tenant, ti, from, to) || j.Deadline <= 0 {
			continue
		}
		n++
		dur := j.Finish - j.Submit
		limit := j.Deadline + time.Duration(slack*float64(dur))
		if j.Finish > limit {
			violated++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(violated) / float64(n)
}

// usedFraction implements eq. (3) without the sign: the fraction of the
// interval's total container capacity allocated to the tenant ("" = all).
func usedFraction(s *cluster.Schedule, tenant string, kind *workload.TaskKind, effectiveOnly bool, from, to time.Duration) float64 {
	l := to - from
	if l <= 0 || s.Capacity <= 0 {
		return 0
	}
	ti := s.TenantIndex(tenant)
	var used time.Duration
	for i := range s.Tasks {
		task := &s.Tasks[i]
		if tenant != "" && task.Tenant != ti {
			continue
		}
		if kind != nil && task.Kind != *kind {
			continue
		}
		if effectiveOnly && task.Outcome != cluster.TaskFinished {
			continue
		}
		start, end := task.Start, task.End
		if start < from {
			start = from
		}
		if end > to {
			end = to
		}
		if end > start {
			used += end - start
		}
	}
	return float64(used) / (float64(l) * float64(s.Capacity))
}

// Dominates reports whether QS vector a Pareto-dominates b: a is no worse
// everywhere and strictly better somewhere. This is the comparison Tempo's
// control loop uses for its revert guard (§4).
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	strictly := false
	for i := range a {
		if a[i] > b[i]+1e-12 {
			return false
		}
		if a[i] < b[i]-1e-12 {
			strictly = true
		}
	}
	return strictly
}
