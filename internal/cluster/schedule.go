package cluster

import (
	"sort"
	"time"

	"tempo/internal/workload"
)

// TaskOutcome classifies how a task attempt ended.
type TaskOutcome int

// Task attempt outcomes.
const (
	// TaskFinished means the attempt ran to completion.
	TaskFinished TaskOutcome = iota
	// TaskPreempted means the RM killed the attempt to free containers for
	// a starved tenant; its work is lost.
	TaskPreempted
	// TaskFailed means the attempt died of an injected failure (noisy
	// emulation only); its work is lost.
	TaskFailed
	// TaskKilled means the attempt was terminated because its job was
	// killed by a user or DBA (noisy emulation only).
	TaskKilled
	// TaskTruncated means the run's horizon ended while the attempt was
	// still executing.
	TaskTruncated
)

func (o TaskOutcome) String() string {
	switch o {
	case TaskFinished:
		return "finished"
	case TaskPreempted:
		return "preempted"
	case TaskFailed:
		return "failed"
	case TaskKilled:
		return "killed"
	case TaskTruncated:
		return "truncated"
	}
	return "unknown"
}

// TaskRecord is one container occupation: a single attempt of a task. A
// task preempted twice and then finishing contributes three records. This
// is exactly the "task schedule" the paper defines QS metrics over: start
// time, end time, and resources (one container) per task run on behalf of
// a tenant.
//
// A record names its job and tenant by number, not by name: the names live
// once per schedule (Schedule.Jobs[Job].ID, Schedule.TenantNames[Tenant]),
// so a record is 48 bytes and holds no pointer, and a retained history of
// them costs the garbage collector nothing to scan (TestRecordLayout).
type TaskRecord struct {
	// Job is the position of the attempt's job in Schedule.Jobs.
	Job int32
	// Tenant indexes Schedule.TenantNames.
	Tenant  int32
	Kind    workload.TaskKind
	Attempt int
	Start   time.Duration
	End     time.Duration
	Outcome TaskOutcome
}

// Duration returns the container time the attempt consumed.
func (t *TaskRecord) Duration() time.Duration { return t.End - t.Start }

// JobRecord summarizes one job's fate.
type JobRecord struct {
	// ID is the job's name, the schedule's one copy of it.
	ID string
	// Tenant indexes Schedule.TenantNames.
	Tenant int32
	Submit time.Duration
	// Finish is when the job's last stage completed (or when it was killed
	// or the horizon ended). Meaningful with Completed.
	Finish time.Duration
	// Deadline copies the job's deadline from the trace; zero means none.
	Deadline time.Duration
	// Completed is true iff every task of every stage finished.
	Completed bool
	// Killed is true iff the job was killed by the injected user/DBA kill
	// process.
	Killed bool
}

// ResponseTime returns Finish − Submit for completed jobs and 0 otherwise.
func (j *JobRecord) ResponseTime() time.Duration {
	if !j.Completed {
		return 0
	}
	return j.Finish - j.Submit
}

// Schedule is the full output of a cluster run: the task schedule plus job
// outcomes. All QS metrics are functions of this value.
type Schedule struct {
	// Capacity is the container count of the cluster that produced this
	// schedule.
	Capacity int
	// Horizon is the virtual time when the run ended.
	Horizon time.Duration
	// TenantNames names the tenants the records number: a record's Tenant
	// indexes it. Its names are distinct and in no particular order, and
	// it may list tenants no record uses; two schedules whose records
	// resolve to the same names are Equal whatever their tables. The
	// table is shared, never written once the schedule is produced.
	TenantNames []string
	// Tasks holds every attempt, in start order.
	Tasks []TaskRecord
	// Jobs holds one record per submitted job, in submit order.
	Jobs []JobRecord
}

// TenantIndex returns name's index in TenantNames, or -1, which no record
// carries, when the table does not list it.
func (s *Schedule) TenantIndex(name string) int32 {
	for i, n := range s.TenantNames {
		if n == name {
			return int32(i)
		}
	}
	return -1
}

// AddTenant returns name's index in TenantNames, appending name when the
// table does not list it yet: the way to number tenants while building a
// schedule by hand.
func (s *Schedule) AddTenant(name string) int32 {
	if i := s.TenantIndex(name); i >= 0 {
		return i
	}
	s.TenantNames = append(s.TenantNames, name)
	return int32(len(s.TenantNames) - 1)
}

// JobID returns the ID of task t's job.
func (s *Schedule) JobID(t *TaskRecord) string { return s.Jobs[t.Job].ID }

// JobsByTenant returns the job records of one tenant, in submit order.
func (s *Schedule) JobsByTenant(tenant string) []JobRecord {
	ti := s.TenantIndex(tenant)
	var out []JobRecord
	for i := range s.Jobs {
		if s.Jobs[i].Tenant == ti {
			out = append(out, s.Jobs[i])
		}
	}
	return out
}

// TasksByTenant returns the task records of one tenant, in start order.
// Their Job and Tenant still number s's jobs and tenant table.
func (s *Schedule) TasksByTenant(tenant string) []TaskRecord {
	ti := s.TenantIndex(tenant)
	var out []TaskRecord
	for i := range s.Tasks {
		if s.Tasks[i].Tenant == ti {
			out = append(out, s.Tasks[i])
		}
	}
	return out
}

// Tenants returns the sorted names of the tenants the job records use.
func (s *Schedule) Tenants() []string {
	used := make([]bool, len(s.TenantNames))
	for i := range s.Jobs {
		used[s.Jobs[i].Tenant] = true
	}
	out := make([]string, 0, len(used))
	for i, u := range used {
		if u {
			out = append(out, s.TenantNames[i])
		}
	}
	sort.Strings(out)
	return out
}

// PreemptionCount returns the number of preempted attempts, optionally
// filtered by tenant ("" = all) and kind (nil = all).
func (s *Schedule) PreemptionCount(tenant string, kind *workload.TaskKind) int {
	ti := s.TenantIndex(tenant)
	n := 0
	for i := range s.Tasks {
		t := &s.Tasks[i]
		if t.Outcome != TaskPreempted {
			continue
		}
		if tenant != "" && t.Tenant != ti {
			continue
		}
		if kind != nil && t.Kind != *kind {
			continue
		}
		n++
	}
	return n
}

// ContainerSeconds returns total container time consumed, split into useful
// (finished attempts) and wasted (preempted/failed/killed attempts) work.
// This is the quantity behind Figure 1's "effective utilization".
func (s *Schedule) ContainerSeconds() (useful, wasted time.Duration) {
	for i := range s.Tasks {
		t := &s.Tasks[i]
		switch t.Outcome {
		case TaskFinished:
			useful += t.Duration()
		case TaskPreempted, TaskFailed, TaskKilled:
			wasted += t.Duration()
		case TaskTruncated:
			// Neither useful nor wasted: the run simply ended.
		}
	}
	return useful, wasted
}

// UsagePoint is one step of a tenant's container-allocation step function.
type UsagePoint struct {
	Time  time.Duration
	Count int
}

// UsageTimeline returns the step function of containers allocated to the
// given tenant ("" = whole cluster) over time, as change points. The
// returned series starts at the first allocation and is strictly
// time-increasing.
func (s *Schedule) UsageTimeline(tenant string) []UsagePoint {
	type delta struct {
		at time.Duration
		d  int
	}
	ti := s.TenantIndex(tenant)
	var deltas []delta
	for i := range s.Tasks {
		t := &s.Tasks[i]
		if tenant != "" && t.Tenant != ti {
			continue
		}
		deltas = append(deltas, delta{t.Start, +1}, delta{t.End, -1})
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].at < deltas[j].at })
	var out []UsagePoint
	cur := 0
	for i := 0; i < len(deltas); {
		at := deltas[i].at
		for i < len(deltas) && deltas[i].at == at {
			cur += deltas[i].d
			i++
		}
		if len(out) > 0 && out[len(out)-1].Time == at {
			out[len(out)-1].Count = cur
		} else {
			out = append(out, UsagePoint{Time: at, Count: cur})
		}
	}
	return out
}

// Window returns the sub-schedule of jobs submitted AND completed within
// [from, to), together with the task attempts of those jobs — the job set
// Ji over which the paper defines QS metrics for an interval L. Times are
// not rebased; the tasks' Job positions are renumbered to the window's
// Jobs, and the window shares s's tenant table.
func (s *Schedule) Window(from, to time.Duration) *Schedule {
	pos := make([]int32, len(s.Jobs)) // a job's position in the window, or -1
	out := &Schedule{Capacity: s.Capacity, Horizon: to, TenantNames: s.TenantNames}
	for i := range s.Jobs {
		j := s.Jobs[i]
		pos[i] = -1
		if j.Submit >= from && j.Submit < to && j.Completed && j.Finish < to {
			pos[i] = int32(len(out.Jobs))
			out.Jobs = append(out.Jobs, j)
		}
	}
	for i := range s.Tasks {
		if p := pos[s.Tasks[i].Job]; p >= 0 {
			t := s.Tasks[i]
			t.Job = p
			out.Tasks = append(out.Tasks, t)
		}
	}
	return out
}
