// Package tempo is a reproduction of "Tempo: Robust and Self-Tuning
// Resource Management in Multi-tenant Parallel Databases" (Tan & Babu,
// VLDB 2016) as a production-quality Go library.
//
// Tempo sits on top of a multi-tenant Resource Manager (RM) — here, a
// faithful container-based fair scheduler with resource shares, min/max
// limits, and two-level preemption timeouts — and self-tunes the RM's
// per-tenant configuration to satisfy declaratively specified SLOs:
//
//	templates := []tempo.Template{
//	    tempo.Template{Queue: "etl", Metric: tempo.DeadlineViolations, Slack: 0.25}.WithTarget(0.05),
//	    {Queue: "adhoc", Metric: tempo.AvgResponseTime},
//	}
//
// The control loop takes the task schedule observed each interval
// (Controller.Apply), evaluates the QS (Quantitative SLO) metrics,
// estimates QS gradients with LOESS, runs the PALD multi-objective
// optimizer to propose candidate configurations inside a trust region,
// scores them in the What-if Model (workload generator + fast schedule
// predictor), applies the best, and reverts on observed regressions.
//
// The subpackages are assembled from these building blocks:
//
//   - cluster simulation and RM semantics: internal/cluster, internal/sim
//   - workload model, traces, statistical generators: internal/workload
//   - QS metrics and templates: internal/qs
//   - What-if Model: internal/whatif
//   - PALD and baselines: internal/pald (with internal/linalg,
//     internal/lp, internal/loess)
//   - the control loop: internal/core
//   - paper experiments: internal/exp
//
// This root package re-exports the user-facing API so applications depend
// on a single import path. See the package examples for complete programs,
// README.md for the architecture and EXPERIMENTS.md for the reproduction
// methodology.
package tempo

import (
	"time"

	"tempo/internal/cluster"
	"tempo/internal/core"
	"tempo/internal/pald"
	"tempo/internal/qs"
	"tempo/internal/whatif"
	"tempo/internal/workload"
)

// RM configuration (the tunable space of §3.2).
type (
	// TenantConfig is one tenant's RM parameters: share weight, min/max
	// container limits, and the two preemption timeouts.
	TenantConfig = cluster.TenantConfig
	// ClusterConfig is a complete RM configuration for a cluster.
	ClusterConfig = cluster.Config
	// Space is the normalized configuration space the optimizer explores.
	Space = cluster.Space
)

// Workload modelling.
type (
	// Trace is a recorded or synthesized workload.
	Trace = workload.Trace
	// JobSpec is one job: a DAG of stages of parallel tasks.
	JobSpec = workload.JobSpec
	// StageSpec is a set of parallel tasks with stage dependencies.
	StageSpec = workload.StageSpec
	// TaskSpec is a single task.
	TaskSpec = workload.TaskSpec
	// TenantProfile is a statistical workload model for one tenant.
	TenantProfile = workload.TenantProfile
	// GenerateOptions configure synthetic trace generation.
	GenerateOptions = workload.GenerateOptions
	// Dist is a sampling distribution used by profiles.
	Dist = workload.Dist
)

// Task kinds.
const (
	// Map tasks run in map containers.
	Map = workload.Map
	// Reduce tasks run in reduce containers.
	Reduce = workload.Reduce
)

// Schedules (the RM's output, and QS metrics' input).
type (
	// Schedule is a simulated or observed task schedule.
	Schedule = cluster.Schedule
	// TaskRecord is one container occupation (task attempt).
	TaskRecord = cluster.TaskRecord
	// JobRecord is one job's outcome.
	JobRecord = cluster.JobRecord
	// RunOptions configure a cluster run.
	RunOptions = cluster.Options
	// NoiseModel injects production-like disturbances into emulated runs.
	NoiseModel = cluster.NoiseModel
)

// Event streams (the canonical incremental view of a schedule).
type (
	// Event is one element of a schedule's canonical ordered event stream
	// (Schedule.Events): job submit/finish, task start/end, allocation
	// deltas.
	Event = cluster.Event
	// EventKind classifies a schedule event.
	EventKind = cluster.EventKind
)

// The schedule event kinds, in canonical same-instant order.
const (
	// EventJobSubmit marks a job entering the system.
	EventJobSubmit = cluster.EventJobSubmit
	// EventTaskStart marks a container being occupied (+1 allocation).
	EventTaskStart = cluster.EventTaskStart
	// EventTaskEnd marks a container being released (-1 allocation).
	EventTaskEnd = cluster.EventTaskEnd
	// EventJobFinish marks a job's terminal record.
	EventJobFinish = cluster.EventJobFinish
)

// Accumulator answers QS queries over arbitrary [From, To) windows of one
// schedule after indexing its records once — the incremental counterpart
// of per-template evaluation.
type Accumulator = qs.Accumulator

// TaskOutcome classifies how a task attempt ended.
type TaskOutcome = cluster.TaskOutcome

// Task attempt outcomes.
const (
	// TaskFinished means the attempt ran to completion.
	TaskFinished = cluster.TaskFinished
	// TaskPreempted means the RM killed the attempt.
	TaskPreempted = cluster.TaskPreempted
	// TaskFailed means an injected failure ended the attempt.
	TaskFailed = cluster.TaskFailed
	// TaskKilled means the job was killed by a user.
	TaskKilled = cluster.TaskKilled
	// TaskTruncated means the run's horizon ended first.
	TaskTruncated = cluster.TaskTruncated
)

// NewMapReduceJob builds the canonical two-stage map/reduce job spec.
func NewMapReduceJob(id, tenant string, submit time.Duration, mapDur, redDur []time.Duration) JobSpec {
	return workload.NewMapReduceJob(id, tenant, submit, mapDur, redDur)
}

// SLOs.
type (
	// Template declares one SLO (§5.2).
	Template = qs.Template
	// MetricKind names a QS metric definition.
	MetricKind = qs.Kind
)

// The predefined QS metrics of §5.1.
const (
	// AvgResponseTime is QS_AJR.
	AvgResponseTime = qs.AvgResponseTime
	// DeadlineViolations is QS_DL.
	DeadlineViolations = qs.DeadlineViolations
	// Utilization is QS_UTIL.
	Utilization = qs.Utilization
	// Throughput is QS_THR.
	Throughput = qs.Throughput
	// Fairness is QS_FAIR.
	Fairness = qs.Fairness
)

// Optimization.
type (
	// Optimizer is the PALD multi-objective optimizer.
	Optimizer = pald.Optimizer
	// OptimizerOptions tune PALD.
	OptimizerOptions = pald.Options
	// Target is a per-objective constraint bound.
	Target = pald.Target
	// Strategy is the optimizer interface the control loop drives.
	Strategy = pald.Strategy
	// WhatIfModel predicts QS vectors for candidate configurations. Set its
	// Parallelism field (e.g. to DefaultParallelism()) to fan what-if
	// evaluations out over a worker pool; results are bit-identical to
	// sequential evaluation.
	WhatIfModel = whatif.Model
	// Evaluator is the what-if interface a Controller accepts, for plugging
	// in custom models: one EvaluateSearch call scores an iteration's
	// candidate set. *WhatIfModel implements it.
	Evaluator = core.Model
)

// DefaultParallelism returns the what-if worker count that saturates the
// host: one worker per available CPU.
func DefaultParallelism() int { return whatif.DefaultParallelism() }

// The control loop.
type (
	// Controller runs Tempo's control loop.
	Controller = core.Controller
	// ControllerConfig wires a Controller.
	ControllerConfig = core.Config
	// Iteration is one recorded control-loop pass.
	Iteration = core.Iteration
)

// Revert-guard policies.
const (
	// RevertOnWorse rolls back configurations that regress the QS vector.
	RevertOnWorse = core.RevertOnWorse
	// RevertOnNonDominance is the paper's literal (stricter) rule.
	RevertOnNonDominance = core.RevertOnNonDominance
	// RevertOff disables the guard.
	RevertOff = core.RevertOff
)

// Run simulates a workload trace under an RM configuration, optionally
// with a noise model emulating a production environment.
func Run(trace *Trace, cfg ClusterConfig, opts RunOptions) (*Schedule, error) {
	return cluster.Run(trace, cfg, opts)
}

// Predict runs the fast deterministic Schedule Predictor (§7.2).
func Predict(trace *Trace, cfg ClusterConfig) (*Schedule, error) {
	return cluster.Predict(trace, cfg)
}

// Generate synthesizes a workload trace from tenant profiles.
func Generate(profiles []TenantProfile, opts GenerateOptions) (*Trace, error) {
	return workload.Generate(profiles, opts)
}

// Evaluate computes the QS vector of a schedule over [from, to) for the
// given SLO templates. It picks the cheaper evaluation path by template
// count: per-template record scans for small SLO sets, or a single pass
// over the schedule's records shared by every template — the
// incremental path, asymptotically ahead once templates scale with
// tenants. Results are bit-identical to per-template Template.Eval for
// windows covering the whole schedule and equal within float round-off
// for arbitrary windows.
func Evaluate(templates []Template, s *Schedule, from, to time.Duration) []float64 {
	return qs.EvalStream(templates, s, from, to)
}

// NewController wires a Tempo control loop starting from the given initial
// (expert) RM configuration. Run each interval under Current() and hand
// the observed schedule to Apply to advance it.
func NewController(cfg ControllerConfig, initial ClusterConfig) (*Controller, error) {
	return core.NewController(cfg, initial)
}

// NewWhatIfFromTrace builds a What-if Model that replays one fixed trace.
func NewWhatIfFromTrace(templates []Template, trace *Trace) (*WhatIfModel, error) {
	return whatif.FromTrace(templates, trace)
}

// NewWhatIfFromProfiles builds a What-if Model that synthesizes fresh
// workloads from statistical tenant profiles. Each sample's seed is derived
// from the base seed with a splitmix64 mix, so distinct base seeds never
// alias the same sample trace.
func NewWhatIfFromProfiles(templates []Template, profiles []TenantProfile, horizon time.Duration, seed int64) (*WhatIfModel, error) {
	return whatif.FromProfiles(templates, profiles, horizon, seed)
}

// DefaultSpace returns a configuration space with sensible bounds for the
// given capacity and tenants.
func DefaultSpace(capacity int, tenants []string) *Space {
	return cluster.DefaultSpace(capacity, tenants)
}

// DefaultNoise returns the production-like noise model of the evaluation.
func DefaultNoise(seed int64) *NoiseModel {
	return cluster.DefaultNoise(seed)
}

// CompanyABC returns the six-tenant production mix of the paper's Table 1.
func CompanyABC(scale float64) []TenantProfile {
	return workload.CompanyABC(scale)
}

// Distribution building blocks for custom tenant profiles.
type (
	// Constant is a degenerate distribution.
	Constant = workload.Constant
	// Uniform is the continuous uniform distribution on [Lo, Hi].
	Uniform = workload.Uniform
	// Exponential has the given mean.
	Exponential = workload.Exponential
	// Lognormal is parameterized by the underlying normal's Mu and Sigma.
	Lognormal = workload.Lognormal
	// Pareto is heavy-tailed with minimum Scale and shape Alpha.
	Pareto = workload.Pareto
	// Mixture draws from weighted components.
	Mixture = workload.Mixture
	// Clamped limits another distribution's samples to [Lo, Hi].
	Clamped = workload.Clamped
	// Empirical samples uniformly from observed values.
	Empirical = workload.Empirical
	// Modulator scales an arrival rate over trace time.
	Modulator = workload.Modulator
)

// LognormalFromMean constructs a Lognormal with the given mean and spread.
func LognormalFromMean(mean, sigma float64) Lognormal {
	return workload.LognormalFromMean(mean, sigma)
}

// DiurnalWeekly returns a day/night + weekend arrival-rate modulator.
func DiurnalWeekly(night, weekend float64) Modulator {
	return workload.DiurnalWeekly(night, weekend)
}

// Periodic returns a bursty periodic arrival-rate modulator.
func Periodic(period, width time.Duration, floor, boost float64) Modulator {
	return workload.Periodic(period, width, floor, boost)
}

// Prebuilt tenant profiles from the paper's evaluation.

// DeadlineDriven returns a deadline-carrying ETL/MV-style tenant profile.
func DeadlineDriven(name string, scale float64) TenantProfile {
	return workload.DeadlineDriven(name, scale)
}

// BestEffort returns a best-effort tenant with long reduce tasks.
func BestEffort(name string, scale float64) TenantProfile {
	return workload.BestEffort(name, scale)
}

// Facebook returns a SWIM-style Facebook-like tenant profile.
func Facebook(name string, scale float64) TenantProfile {
	return workload.Facebook(name, scale)
}

// Cloudera returns a SWIM-style Cloudera-customer-like tenant profile.
func Cloudera(name string, scale float64) TenantProfile {
	return workload.Cloudera(name, scale)
}

// FitProfile estimates a statistical tenant profile from a recorded trace
// (§7.1's "statistical model trained from historical traces").
func FitProfile(trace *Trace, tenant string) (TenantProfile, error) {
	return workload.Fit(trace, tenant)
}

// FitAllProfiles fits a profile for every tenant in the trace.
func FitAllProfiles(trace *Trace) ([]TenantProfile, error) {
	return workload.FitAll(trace)
}

// Decomposition describes how DecomposeTenant split one tenant's jobs into
// size-class sub-queues (§10's approach to tenants with mixed statistical
// characteristics).
type Decomposition = workload.Decomposition

// DecomposeTenant clusters a tenant's jobs into k size classes and rewrites
// the trace so each class submits to its own sub-queue, enabling
// fine-grained SLOs per class.
func DecomposeTenant(trace *Trace, tenant string, k int) (*Trace, *Decomposition, error) {
	return workload.Decompose(trace, tenant, k)
}

// RecomposeTenant maps a sub-queue name back to the original tenant.
func RecomposeTenant(name string) string {
	return workload.Recompose(name)
}

// Predictor is the pluggable schedule-prediction hook of the What-if Model
// (§7.2): adapters for external RM simulators implement this signature.
type Predictor = whatif.Predictor

// Scaled multiplies another distribution's samples by a constant — the
// building block behind TenantProfile.Grow.
type Scaled = workload.Scaled
