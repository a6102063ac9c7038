// Package workload models the jobs that multi-tenant parallel databases
// run: DAGs of stages of parallel tasks, submitted over time by tenants.
//
// It provides the two workload sources Tempo's What-if Model needs (§7.1):
// replayable traces (possibly captured from a cluster run) and statistical
// generators trained on, or configured like, production workloads — Poisson
// arrivals and lognormal task durations, the shape the paper reports for
// Company ABC and that [40] reports for Taobao's production Hadoop cluster.
package workload

import (
	"fmt"
	"sort"
	"time"
)

// TaskKind distinguishes the two container pools of a MapReduce-style RM.
// Other engines (Spark, SQL) map onto the same two classes: input-parallel
// work and shuffle/aggregation work.
type TaskKind int

// Task kinds.
const (
	Map TaskKind = iota
	Reduce
)

func (k TaskKind) String() string {
	switch k {
	case Map:
		return "map"
	case Reduce:
		return "reduce"
	}
	return fmt.Sprintf("TaskKind(%d)", int(k))
}

// TaskSpec describes a single task: one container for Duration.
type TaskSpec struct {
	Kind     TaskKind      `json:"kind"`
	Duration time.Duration `json:"duration"`
}

// StageSpec is a set of parallel tasks that becomes runnable once all the
// stages it depends on have finished. A classic MapReduce job is two
// stages: maps, then reduces depending on stage 0.
type StageSpec struct {
	DependsOn []int      `json:"depends_on,omitempty"`
	Tasks     []TaskSpec `json:"tasks"`
}

// JobSpec is a job submitted by a tenant at a point in trace time.
type JobSpec struct {
	ID     string        `json:"id"`
	Tenant string        `json:"tenant"`
	Submit time.Duration `json:"submit"`
	// Deadline is the absolute trace time by which the job should finish;
	// zero means the job has no deadline.
	Deadline time.Duration `json:"deadline,omitempty"`
	Stages   []StageSpec   `json:"stages"`
}

// TaskCount returns the total number of tasks in the job.
func (j *JobSpec) TaskCount() int {
	n := 0
	for _, s := range j.Stages {
		n += len(s.Tasks)
	}
	return n
}

// TotalWork returns the sum of all task durations (serial work).
func (j *JobSpec) TotalWork() time.Duration {
	var w time.Duration
	for _, s := range j.Stages {
		for _, t := range s.Tasks {
			w += t.Duration
		}
	}
	return w
}

// CriticalPath returns a lower bound on the job's completion time given
// unlimited containers: the longest dependency chain of per-stage maximum
// task durations.
//
// It does not allocate for jobs of up to eight stages: the noisy cluster
// emulation calls it for every job it decides to kill.
func (j *JobSpec) CriticalPath() time.Duration {
	var small [8]time.Duration
	memo := small[:]
	if len(j.Stages) > len(small) {
		memo = make([]time.Duration, len(j.Stages))
	}
	var cp time.Duration
	for i := range j.Stages {
		if v := j.longest(i, memo); v > cp {
			cp = v
		}
	}
	return cp
}

// longest is CriticalPath's memoised chain length ending at stage i.
func (j *JobSpec) longest(i int, memo []time.Duration) time.Duration {
	if memo[i] != 0 {
		return memo[i]
	}
	var dep time.Duration
	for _, d := range j.Stages[i].DependsOn {
		if v := j.longest(d, memo); v > dep {
			dep = v
		}
	}
	var maxTask time.Duration
	for _, t := range j.Stages[i].Tasks {
		if t.Duration > maxTask {
			maxTask = t.Duration
		}
	}
	memo[i] = dep + maxTask
	return memo[i]
}

// Validate checks the structural invariants of the job: nonempty stages,
// in-range acyclic dependencies, and positive task durations.
func (j *JobSpec) Validate() error {
	if j.ID == "" {
		return fmt.Errorf("workload: job with empty ID")
	}
	if j.Tenant == "" {
		return fmt.Errorf("workload: job %s has empty tenant", j.ID)
	}
	if len(j.Stages) == 0 {
		return fmt.Errorf("workload: job %s has no stages", j.ID)
	}
	for si, s := range j.Stages {
		if len(s.Tasks) == 0 {
			return fmt.Errorf("workload: job %s stage %d has no tasks", j.ID, si)
		}
		for _, d := range s.DependsOn {
			if d < 0 || d >= len(j.Stages) {
				return fmt.Errorf("workload: job %s stage %d depends on out-of-range stage %d", j.ID, si, d)
			}
			if d >= si {
				return fmt.Errorf("workload: job %s stage %d depends on later stage %d (stages must be topologically ordered)", j.ID, si, d)
			}
		}
		for ti, task := range s.Tasks {
			if task.Duration <= 0 {
				return fmt.Errorf("workload: job %s stage %d task %d has non-positive duration", j.ID, si, ti)
			}
		}
	}
	return nil
}

// NewMapReduceJob builds the canonical two-stage job: len(mapDur) map tasks
// followed by len(redDur) reduce tasks. redDur may be empty for map-only
// jobs (e.g. Hadoop streaming).
func NewMapReduceJob(id, tenant string, submit time.Duration, mapDur, redDur []time.Duration) JobSpec {
	mapTasks := make([]TaskSpec, len(mapDur))
	for i, d := range mapDur {
		mapTasks[i] = TaskSpec{Kind: Map, Duration: d}
	}
	job := JobSpec{
		ID:     id,
		Tenant: tenant,
		Submit: submit,
		Stages: []StageSpec{{Tasks: mapTasks}},
	}
	if len(redDur) > 0 {
		redTasks := make([]TaskSpec, len(redDur))
		for i, d := range redDur {
			redTasks[i] = TaskSpec{Kind: Reduce, Duration: d}
		}
		job.Stages = append(job.Stages, StageSpec{DependsOn: []int{0}, Tasks: redTasks})
	}
	return job
}

// Trace is a time-ordered collection of jobs over a horizon.
type Trace struct {
	Name    string        `json:"name"`
	Horizon time.Duration `json:"horizon"`
	Jobs    []JobSpec     `json:"jobs"`
}

// Sort orders jobs by (Submit, ID), the canonical order every consumer
// assumes.
func (t *Trace) Sort() {
	sort.SliceStable(t.Jobs, func(i, j int) bool {
		if t.Jobs[i].Submit != t.Jobs[j].Submit {
			return t.Jobs[i].Submit < t.Jobs[j].Submit
		}
		return t.Jobs[i].ID < t.Jobs[j].ID
	})
}

// Equal reports whether two traces describe identical workloads: same
// name, horizon, and job list in the same order. The cross-tick what-if
// search cache uses it to detect regenerated sample traces.
func (t *Trace) Equal(o *Trace) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Name != o.Name || t.Horizon != o.Horizon || len(t.Jobs) != len(o.Jobs) {
		return false
	}
	for i := range t.Jobs {
		if !t.Jobs[i].Equal(&o.Jobs[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether two job specs are identical, including stage
// structure and every task.
func (j *JobSpec) Equal(o *JobSpec) bool {
	if j.ID != o.ID || j.Tenant != o.Tenant || j.Submit != o.Submit ||
		j.Deadline != o.Deadline || len(j.Stages) != len(o.Stages) {
		return false
	}
	for si := range j.Stages {
		a, b := &j.Stages[si], &o.Stages[si]
		if len(a.DependsOn) != len(b.DependsOn) || len(a.Tasks) != len(b.Tasks) {
			return false
		}
		for i := range a.DependsOn {
			if a.DependsOn[i] != b.DependsOn[i] {
				return false
			}
		}
		for i := range a.Tasks {
			if a.Tasks[i] != b.Tasks[i] {
				return false
			}
		}
	}
	return true
}

// Validate checks every job and that submissions fall within the horizon.
func (t *Trace) Validate() error {
	seen := make(map[string]bool, len(t.Jobs))
	for i := range t.Jobs {
		j := &t.Jobs[i]
		if err := j.Validate(); err != nil {
			return err
		}
		if seen[j.ID] {
			return fmt.Errorf("workload: duplicate job ID %s", j.ID)
		}
		seen[j.ID] = true
		if j.Submit < 0 || (t.Horizon > 0 && j.Submit > t.Horizon) {
			return fmt.Errorf("workload: job %s submitted at %v outside horizon %v", j.ID, j.Submit, t.Horizon)
		}
	}
	return nil
}

// TaskCount returns the total number of tasks across all jobs.
func (t *Trace) TaskCount() int {
	n := 0
	for i := range t.Jobs {
		n += t.Jobs[i].TaskCount()
	}
	return n
}

// Tenants returns the sorted set of tenant names appearing in the trace.
func (t *Trace) Tenants() []string {
	set := make(map[string]bool)
	for i := range t.Jobs {
		set[t.Jobs[i].Tenant] = true
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ByTenant returns the jobs submitted by the given tenant, in trace order.
func (t *Trace) ByTenant(tenant string) []JobSpec {
	var out []JobSpec
	for i := range t.Jobs {
		if t.Jobs[i].Tenant == tenant {
			out = append(out, t.Jobs[i])
		}
	}
	return out
}

// Window returns the sub-trace of jobs submitted in [from, to). Times in
// the returned trace are rebased so the window starts at zero; deadlines
// are shifted accordingly.
func (t *Trace) Window(from, to time.Duration) *Trace {
	out := &Trace{Name: t.Name, Horizon: to - from}
	for i := range t.Jobs {
		j := t.Jobs[i]
		if j.Submit < from || j.Submit >= to {
			continue
		}
		j.Submit -= from
		if j.Deadline > 0 {
			j.Deadline -= from
		}
		out.Jobs = append(out.Jobs, j)
	}
	return out
}
