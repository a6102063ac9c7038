package cluster

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"tempo/internal/sim"
	"tempo/internal/workload"
)

// Event tie-break priorities: at the same instant, finishes free containers
// before submissions ask for them, and preemption checks observe the
// settled state last.
const (
	prioFinish = iota
	prioKill
	prioSubmit
	prioPreempt
)

// Event kinds, and what each event's argument indexes.
const (
	evSubmit     = iota // order
	evFinish            // runs
	evKill              // jobs
	evMinCheck          // tenants
	evShareCheck        // tenants
)

// Options configure a cluster run.
type Options struct {
	// Noise, when non-nil, turns the run into a noisy emulation of a
	// production cluster. Nil runs the deterministic Schedule Predictor.
	Noise *NoiseModel
	// Horizon, when positive, stops the run at that virtual time, leaving
	// still-running work truncated. Zero runs until all jobs finish.
	Horizon time.Duration
}

// The scheduler's per-run state lives in slices it owns, and its records
// refer to each other by int32 index into them, never by pointer: the
// collector does not scan the slices (TestKernelStateNoscan), and a reset
// truncates them. A runningTask's index is also its TaskRecord's, and a
// jobRun's its JobRecord's.

// task is one task of one job; it may go through several attempts.
type task struct {
	duration time.Duration
	kind     workload.TaskKind
	job      int32 // jobs
	stage    int32
	attempt  int32
}

// runningTask is one attempt of a task in a container.
type runningTask struct {
	task   int32 // tasks
	tenant int32 // tenants
	// finishEv is the attempt's finish event, cancelled by an early end.
	finishEv int32
	// nextOfJob links the attempts of a job that has a kill event (see
	// jobRun.running); -1 ends the list.
	nextOfJob int32
	// plannedOutcome is how the attempt will end if it runs to its finish
	// event: TaskFinished, or TaskFailed when the noise model injected a
	// failure at launch. Preemption and kills override it via release.
	plannedOutcome TaskOutcome
	done           bool
}

// jobRun tracks a job's progress through its stages.
type jobRun struct {
	spec   int32 // trace.Jobs
	tenant int32 // tenants
	// stage0 and stages locate the job's per-stage unfinished task counts
	// and unlocked flags in the scheduler's remaining and unlocked.
	stage0, stages int32
	killEv         int32
	// running heads the job's attempts, newest first, linked through
	// runningTask.nextOfJob; -1 for none. It is kept only for jobs with a
	// kill event: killJob is its only reader, and its releases commute, so
	// the order does not matter.
	running  int32
	finished bool
	killed   bool
}

// taskDeque is the tenant's pending-task FIFO with O(1) front pushes for
// preempted tasks. A head index replaces the pending[1:] re-slicing the
// queue used to do, which defeated append's amortized growth (the slice's
// base kept advancing, so the backing array was re-allocated over and
// over on steady task flow).
type taskDeque struct {
	buf  []int32 // tasks
	head int
}

func (d *taskDeque) len() int { return len(d.buf) - d.head }

func (d *taskDeque) pushBack(t int32) { d.buf = append(d.buf, t) }

// pushFront reuses the slot freed by the last popFront when one exists;
// preemptions (the only front-pushers) always follow pops, so the
// allocating fallback is rare.
func (d *taskDeque) pushFront(t int32) {
	if d.head > 0 {
		d.head--
		d.buf[d.head] = t
		return
	}
	d.buf = append(d.buf, 0)
	copy(d.buf[1:], d.buf)
	d.buf[0] = t
}

func (d *taskDeque) popFront() int32 {
	t := d.buf[d.head]
	d.head++
	if d.head == len(d.buf) {
		d.buf = d.buf[:0]
		d.head = 0
	}
	return t
}

// filter keeps only tasks satisfying pred, preserving order.
func (d *taskDeque) filter(pred func(int32) bool) {
	kept := d.buf[:d.head]
	for _, t := range d.buf[d.head:] {
		if pred(t) {
			kept = append(kept, t)
		}
	}
	d.buf = kept
}

// tenantState is a tenant queue inside the RM. Its name is the
// scheduler's names entry at the same index.
type tenantState struct {
	cfg TenantConfig

	pending taskDeque // FIFO; preempted tasks are pushed to the front
	running int
	ranked  []int32 // runs in launch order, lazily compacted

	fairShare float64 // instantaneous weighted fair share
	// shareCap is min(effMax, demand) as the last water-fill saw it: the
	// only input of the fair shares that moves during a run.
	shareCap int

	starvedMinSince   time.Duration
	starvedShareSince time.Duration
	minCheckEv        int32
	shareCheckEv      int32

	// peak is the most containers the tenant has held at once, waitFrom
	// when its pending deque last became non-empty, and longestWait the
	// longest span it stayed non-empty, up to the last time it emptied:
	// the run's certificate reads them (see Certificate).
	peak        int
	waitFrom    time.Duration
	longestWait time.Duration
}

func (t *tenantState) demand() int { return t.running + t.pending.len() }

// effMax returns the tenant's container ceiling.
func (t *tenantState) effMax(capacity int) int { return t.cfg.effMax(capacity) }

// minTarget is the containers the tenant is entitled to at the min-share
// level right now: its floor, capped by demand.
func (t *tenantState) minTarget(capacity int) int { return t.cfg.minTarget(t.demand(), capacity) }

// effMax returns the container ceiling of a tenant under tc.
func (tc *TenantConfig) effMax(capacity int) int {
	if tc.MaxShare <= 0 || tc.MaxShare > capacity {
		return capacity
	}
	return tc.MaxShare
}

// minTarget returns the min-share level entitlement of a tenant under tc
// with the given demand: its floor, capped by demand and capacity.
func (tc *TenantConfig) minTarget(demand, capacity int) int {
	return min(tc.MinShare, capacity, demand)
}

// pickRank is a waiting tenant's standing in pickTenant's order.
type pickRank struct {
	belowMin    bool
	key, weight float64
}

// rankTenant returns the standing of a waiting tenant under tc with the
// given running count and demand, and false when its ceiling bars it from
// another container. It and pickRank.before are the pick comparison: the
// scheduler and Certificate.Covers both call them.
//
//tempo:hot
func rankTenant(tc *TenantConfig, running, demand, capacity int) (pickRank, bool) {
	if running >= tc.effMax(capacity) {
		return pickRank{}, false
	}
	if running < tc.minTarget(demand, capacity) {
		return pickRank{true, float64(running) / float64(max(tc.MinShare, 1)), tc.Weight}, true
	}
	return pickRank{false, float64(running) / tc.Weight, tc.Weight}, true
}

// before reports whether a tenant standing at a is picked ahead of one at
// b: below-min-share first, then the lower key, then on a key tie the
// heavier weight.
//
//tempo:hot
func (a pickRank) before(b pickRank) bool {
	const eps = 1e-9
	if a.belowMin != b.belowMin {
		return a.belowMin
	}
	return a.key < b.key-eps || math.Abs(a.key-b.key) <= eps && a.weight > b.weight
}

// ws is one active tenant's state inside computeFairShares' water-filling.
type ws struct {
	cap, floor, share, weight float64
	ts                        int32 // tenants
	fixed                     bool
}

// scheduler is the RM simulation state. It is built to be reused: init
// truncates every per-run slice and restores every field to its
// start-of-run state, keeping the backing arrays, the tenants' buffers
// included, so a warmed scheduler runs a simulation with a constant number
// of heap allocations, whatever the trace (see Sim).
type scheduler struct {
	engine   sim.Engine
	cfg      Config
	capacity int
	free     int
	opts     Options
	rng      *rand.Rand
	trace    *workload.Trace
	schedule *Schedule

	tenants  []tenantState // sorted by name for determinism
	names    []string      // tenant names, by tenants index
	tenantOf map[string]int32
	jobs     []jobRun      // in submission order
	tasks    []task        // in unlock order
	runs     []runningTask // in launch order
	// order lists trace.Jobs by submission time, ties in trace order.
	order []int32
	// remaining and unlocked hold every job's per-stage unfinished task
	// counts and unlocked flags (see jobRun.stage0).
	remaining []int32
	unlocked  []bool

	// waiting counts the tenants with a non-empty pending deque, open the
	// starvation windows with since >= 0. While both are zero no tenant
	// can be picked or starve and no check event is pending (a pending
	// one implies since >= 0), so assign places nothing and
	// updateStarvation skips its pass. waitSet holds the waiting tenants,
	// one bit per tenants index, so pickTenant visits only them.
	waiting, open int
	waitSet       []uint64
	// touched holds, in waitSet's layout, the tenants the starvation pass
	// must revisit: those whose running count, pending deque or fair
	// share changed, or whose check fired, since the pass last ran.
	// Every other tenant's shareCap is current and its clocks are as a
	// pass would leave them (TestKernelCounters).
	touched []uint64
	// passes, fills and visits count this run's starvation passes, the
	// water-fills run and the tenants the passes visited; the kernel's
	// tests and benchmark hold the skips to them.
	passes, fills, visits int

	// certOK reports whether the run still earns a certificate: it is
	// noise-free and no preemption check has fired. While it holds,
	// pickTenant logs its contended picks into certLog (see Certificate).
	certOK  bool
	certLog []int32

	// Reused hot-loop buffers.
	fair    []ws    // computeFairShares scratch
	victims []int32 // killVictims scratch

	// Backing arrays for the produced Schedule, reused across runs; a
	// detached schedule gets copies (see Sim.Detach).
	tasksBuf []TaskRecord
	jobsBuf  []JobRecord
}

// init resets the scheduler for a fresh run of the trace under cfg.
func (s *scheduler) init(trace *workload.Trace, cfg Config, opts Options) {
	s.engine.Reset()
	s.cfg = cfg
	s.capacity = cfg.TotalContainers
	s.free = cfg.TotalContainers
	s.opts = opts
	s.trace = trace
	s.jobs = s.jobs[:0]
	s.tasks = s.tasks[:0]
	s.runs = s.runs[:0]
	s.remaining = s.remaining[:0]
	s.unlocked = s.unlocked[:0]
	s.waiting, s.open = 0, 0
	s.passes, s.fills, s.visits = 0, 0, 0
	s.certOK = opts.Noise == nil
	s.certLog = s.certLog[:0]
	s.schedule = &Schedule{
		Capacity: cfg.TotalContainers,
		Tasks:    s.tasksBuf[:0],
		Jobs:     s.jobsBuf[:0],
	}
	if opts.Noise != nil {
		// Re-seeding restores the exact generator state rand.New would
		// build, so a reused scheduler's noise stream is bit-identical to a
		// fresh one's.
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(opts.Noise.Seed))
		} else {
			s.rng.Seed(opts.Noise.Seed)
		}
	}
	s.initTenants(trace, cfg)
	words := (len(s.tenants) + 63) / 64
	s.waitSet = slices.Grow(s.waitSet[:0], words)[:words]
	clear(s.waitSet)
	s.touched = slices.Grow(s.touched[:0], words)[:words]
	clear(s.touched)
	// Submissions enter the queue one at a time, each scheduled by the
	// one before, instead of all up front: the queue then holds only work
	// in flight. Dispatch order is unchanged, since only submissions
	// have prioSubmit, so a submission's place among other events is
	// fixed by time and priority alone, and order keeps their own
	// (time, trace index) order.
	jobs := trace.Jobs
	s.order = s.order[:0]
	for i := range jobs {
		s.order = append(s.order, int32(i))
	}
	bySubmit := func(a, b int32) int { return cmp.Compare(jobs[a].Submit, jobs[b].Submit) }
	if !slices.IsSortedFunc(s.order, bySubmit) {
		slices.SortStableFunc(s.order, bySubmit)
	}
	if len(jobs) > 0 {
		s.engine.At(jobs[s.order[0]].Submit, prioSubmit, evSubmit, 0)
	}
}

// initTenants builds the trace's tenants, sorted by name. A tenant slot
// keeps its pending and ranked buffers from the last run that used it,
// so a Sim rerunning one trace regrows nothing.
func (s *scheduler) initTenants(trace *workload.Trace, cfg Config) {
	if s.tenantOf == nil {
		s.tenantOf = make(map[string]int32)
	} else {
		clear(s.tenantOf)
	}
	s.names = s.names[:0]
	for i := range trace.Jobs {
		name := trace.Jobs[i].Tenant
		if _, ok := s.tenantOf[name]; !ok {
			s.tenantOf[name] = 0 // indexed below, once sorted
			s.names = append(s.names, name)
		}
	}
	slices.Sort(s.names)
	if n := len(s.names); n > cap(s.tenants) {
		s.tenants = append(s.tenants[:cap(s.tenants)], make([]tenantState, n-cap(s.tenants))...)
	}
	s.tenants = s.tenants[:len(s.names)]
	for i, name := range s.names {
		s.tenantOf[name] = int32(i)
		ts := &s.tenants[i]
		*ts = tenantState{
			cfg:               cfg.Tenant(name),
			pending:           taskDeque{buf: ts.pending.buf[:0]},
			ranked:            ts.ranked[:0],
			starvedMinSince:   -1,
			starvedShareSince: -1,
			minCheckEv:        sim.NoEvent,
			shareCheckEv:      sim.NoEvent,
		}
	}
}

// run drives the event loop to completion (or the horizon). Together
// with the handlers below it is the what-if inner loop's simulation
// kernel, alloc-gated by TestSimSteadyStateAllocs and by
// BenchmarkWhatIfBatch's allocation ceiling.
//
//tempo:hot
func (s *scheduler) run() *Schedule {
	for s.step() {
	}
	if s.opts.Horizon > 0 {
		s.truncate(s.opts.Horizon)
	}
	s.schedule.Horizon = s.engine.Now()
	return s.schedule
}

// step dispatches the next event due before the horizon, and reports
// whether there was one.
//
//tempo:hot
func (s *scheduler) step() bool {
	var kind uint8
	var arg int32
	var ok bool
	if s.opts.Horizon > 0 {
		kind, arg, ok = s.engine.StepUntil(s.opts.Horizon)
	} else {
		kind, arg, ok = s.engine.Step()
	}
	if !ok {
		return false
	}
	now := s.engine.Now()
	switch kind {
	case evSubmit:
		if next := arg + 1; int(next) < len(s.order) {
			s.engine.At(s.trace.Jobs[s.order[next]].Submit, prioSubmit, evSubmit, next)
		}
		s.submit(now, s.order[arg])
	case evFinish:
		s.finish(now, arg, s.runs[arg].plannedOutcome)
	case evKill:
		s.killJob(now, arg)
	case evMinCheck:
		s.certOK = false
		s.preemptCheck(now, arg, true)
	case evShareCheck:
		s.certOK = false
		s.preemptCheck(now, arg, false)
	}
	return true
}

// setWaiting records that tenant i's pending deque became non-empty (on)
// or empty (!on).
func (s *scheduler) setWaiting(i int32, on bool) {
	bit := uint64(1) << (i & 63)
	ts := &s.tenants[i]
	if on {
		s.waiting++
		s.waitSet[i>>6] |= bit
		ts.waitFrom = s.engine.Now()
	} else {
		s.waiting--
		s.waitSet[i>>6] &^= bit
		ts.longestWait = max(ts.longestWait, s.engine.Now()-ts.waitFrom)
	}
}

// touch marks tenant i for the next starvation pass.
//
//tempo:hot
func (s *scheduler) touch(i int32) {
	s.touched[i>>6] |= uint64(1) << (i & 63)
}

// push appends a zero element to *s and returns it for filling in place.
// Appending a composite literal instead builds the element on the stack
// with narrow stores and copies it out with wide loads, which stall on
// store forwarding: about a tenth of a run, summed over the kernel's
// appends.
func push[T any](s *[]T) *T {
	var zero T
	*s = append(*s, zero)
	return &(*s)[len(*s)-1]
}

// stages returns the job's per-stage unfinished task counts and unlocked
// flags.
func (s *scheduler) stages(jr *jobRun) ([]int32, []bool) {
	lo, hi := jr.stage0, jr.stage0+jr.stages
	return s.remaining[lo:hi], s.unlocked[lo:hi]
}

// submit admits trace job i: record it, unlock dependency-free stages,
// enqueue their tasks, and try to place work.
//
//tempo:hot
func (s *scheduler) submit(now time.Duration, i int32) {
	spec := &s.trace.Jobs[i]
	j := int32(len(s.jobs))
	jr := push(&s.jobs)
	jr.spec = i
	jr.tenant = s.tenantOf[spec.Tenant]
	jr.stage0 = int32(len(s.remaining))
	jr.stages = int32(len(spec.Stages))
	jr.killEv = sim.NoEvent
	jr.running = -1
	rec := push(&s.schedule.Jobs)
	rec.ID = spec.ID
	rec.Tenant = spec.Tenant
	rec.Submit = now
	rec.Deadline = spec.Deadline
	for k := range spec.Stages {
		s.remaining = append(s.remaining, int32(len(spec.Stages[k].Tasks)))
		s.unlocked = append(s.unlocked, false)
	}
	for k := range spec.Stages {
		if len(spec.Stages[k].DependsOn) == 0 {
			s.unlockStage(j, k)
		}
	}
	if s.opts.Noise != nil {
		if killAt, ok := s.opts.Noise.jobKillTime(s.rng, spec, now); ok {
			s.jobs[j].killEv = s.engine.At(killAt, prioKill, evKill, j)
		}
	}
	s.assign(now)
}

// unlockStage enqueues a stage's tasks at the tail of the tenant queue.
func (s *scheduler) unlockStage(j int32, stage int) {
	jr := &s.jobs[j]
	_, unlocked := s.stages(jr)
	unlocked[stage] = true
	ts := &s.tenants[jr.tenant]
	specs := s.trace.Jobs[jr.spec].Stages[stage].Tasks
	if ts.pending.len() == 0 && len(specs) > 0 {
		s.setWaiting(jr.tenant, true)
	}
	s.touch(jr.tenant)
	for i := range specs {
		ts.pending.pushBack(int32(len(s.tasks)))
		t := push(&s.tasks)
		t.duration = specs[i].Duration
		t.kind = specs[i].Kind
		t.job = j
		t.stage = int32(stage)
	}
}

// assign places pending tasks onto free containers following fair-scheduler
// order: tenants below their min share first (most deficient relative to
// the floor), then tenants most below their weighted fair share.
//
//tempo:hot
func (s *scheduler) assign(now time.Duration) {
	for s.free > 0 && s.waiting > 0 {
		ts := s.pickTenant()
		if ts < 0 {
			break
		}
		s.launch(now, ts)
	}
	s.updateStarvation(now)
}

// pickTenant returns the next tenant entitled to a container, or -1.
// Order: below-min-share tenants first (most deficient relative to the
// floor), then lowest running/weight ratio; ratio ties go to the heavier
// tenant (as in YARN's fair-share comparator) so synchronized task waves
// don't systematically skew the split, then to the lexicographically
// smaller name for determinism. Only waiting tenants qualify, and
// waitSet yields them in index order, which is name order.
//
//tempo:hot
func (s *scheduler) pickTenant() int32 {
	best := int32(-1)
	var bestRank pickRank
	// While the run earns a certificate, a pick with two or more tenants
	// waiting is logged with every waiting tenant's state; a lone waiting
	// tenant is logged only when it may not take a container (see
	// Certificate).
	var rows []int32
	n := len(s.certLog)
	if s.certOK && s.waiting >= 2 {
		s.certLog = slices.Grow(s.certLog, 2+3*s.waiting)[:n+2+3*s.waiting]
		s.certLog[n] = int32(s.waiting)
		rows = s.certLog[n+2:]
	}
	k, last := 0, 0
	for w, word := range s.waitSet {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			ts := &s.tenants[i]
			if rows != nil {
				rows[k], rows[k+1], rows[k+2] = int32(i), int32(ts.running), int32(ts.demand())
				k += 3
			}
			last = i
			if r, ok := rankTenant(&ts.cfg, ts.running, ts.demand(), s.capacity); ok && (best < 0 || r.before(bestRank)) {
				best, bestRank = int32(i), r
			}
		}
	}
	switch {
	case rows != nil:
		s.certLog[n+1] = best
	case s.certOK && best < 0:
		ts := &s.tenants[last]
		s.certLog = append(s.certLog, 1, -1, int32(last), int32(ts.running), int32(ts.demand()))
	}
	return best
}

// launch starts the tenant's next pending task in a free container.
//
//tempo:hot
func (s *scheduler) launch(now time.Duration, tenant int32) {
	ts := &s.tenants[tenant]
	k := s.popPending(tenant)
	if k < 0 {
		return
	}
	t := &s.tasks[k]
	t.attempt++
	dur := t.duration
	fail := false
	if s.opts.Noise != nil {
		dur, fail = s.opts.Noise.attemptDuration(s.rng, dur)
	}
	r := int32(len(s.runs))
	rt := push(&s.runs)
	rt.task = k
	rt.tenant = tenant
	rt.nextOfJob = -1
	rt.plannedOutcome = TaskFinished
	if fail {
		rt.plannedOutcome = TaskFailed
	}
	jr := &s.jobs[t.job]
	rec := push(&s.schedule.Tasks)
	rec.JobID = s.trace.Jobs[jr.spec].ID
	rec.Tenant = s.names[tenant]
	rec.Kind = t.kind
	rec.Attempt = int(t.attempt)
	rec.Start = now
	rec.Outcome = TaskTruncated // finalized on completion
	s.free--
	ts.running++
	ts.peak = max(ts.peak, ts.running)
	ts.ranked = append(ts.ranked, r)
	if jr.killEv != sim.NoEvent {
		rt.nextOfJob = jr.running
		jr.running = r
	}
	rt.finishEv = s.engine.At(now+dur, prioFinish, evFinish, r)
}

// popPending removes and returns the tenant's next live pending task,
// discarding tasks whose job has been killed, or -1.
func (s *scheduler) popPending(tenant int32) int32 {
	ts := &s.tenants[tenant]
	s.touch(tenant)
	for ts.pending.len() > 0 {
		k := ts.pending.popFront()
		if ts.pending.len() == 0 {
			s.setWaiting(tenant, false)
		}
		if !s.jobs[s.tasks[k].job].killed {
			return k
		}
	}
	return -1
}

// finish ends attempt r with the given outcome. Failed attempts requeue.
//
//tempo:hot
func (s *scheduler) finish(now time.Duration, r int32, outcome TaskOutcome) {
	s.release(now, r, outcome)
	rt := &s.runs[r]
	switch outcome {
	case TaskFinished:
		t := &s.tasks[rt.task]
		remaining, _ := s.stages(&s.jobs[t.job])
		remaining[t.stage]--
		if remaining[t.stage] == 0 {
			s.stageComplete(now, t.job)
		}
	case TaskFailed:
		// Lost work; the task restarts from scratch at the queue tail.
		ts := &s.tenants[rt.tenant]
		if ts.pending.len() == 0 {
			s.setWaiting(rt.tenant, true)
		}
		ts.pending.pushBack(rt.task)
	}
	s.assign(now)
}

// release frees attempt r's container and finalizes its record. It
// touches the tenant, which also covers the requeues finish and preempt
// make after it.
func (s *scheduler) release(now time.Duration, r int32, outcome TaskOutcome) {
	rt := &s.runs[r]
	if rt.done {
		return
	}
	rt.done = true
	s.engine.Cancel(rt.finishEv)
	rec := &s.schedule.Tasks[r]
	rec.End = now
	rec.Outcome = outcome
	s.tenants[rt.tenant].running--
	s.touch(rt.tenant)
	s.free++
}

// stageComplete unlocks dependent stages and finishes the job when all
// stages are done.
func (s *scheduler) stageComplete(now time.Duration, j int32) {
	jr := &s.jobs[j]
	spec := &s.trace.Jobs[jr.spec]
	remaining, unlocked := s.stages(jr)
	for i := range spec.Stages {
		if unlocked[i] {
			continue
		}
		ready := true
		for _, d := range spec.Stages[i].DependsOn {
			if remaining[d] > 0 {
				ready = false
				break
			}
		}
		if ready {
			s.unlockStage(j, i)
		}
	}
	for _, rem := range remaining {
		if rem > 0 {
			return
		}
	}
	jr.finished = true
	s.engine.Cancel(jr.killEv)
	rec := &s.schedule.Jobs[j]
	rec.Finish = now
	rec.Completed = true
}

// killJob emulates a user/DBA killing a job: pending tasks evaporate and
// running attempts are terminated, their work lost.
func (s *scheduler) killJob(now time.Duration, j int32) {
	jr := &s.jobs[j]
	if jr.finished || jr.killed {
		return
	}
	jr.killed = true
	// Remove the job's pending tasks from the tenant queue.
	ts := &s.tenants[jr.tenant]
	had := ts.pending.len() > 0
	ts.pending.filter(func(k int32) bool { return s.tasks[k].job != j })
	if had && ts.pending.len() == 0 {
		s.setWaiting(jr.tenant, false)
	}
	s.touch(jr.tenant)
	for r := jr.running; r >= 0; r = s.runs[r].nextOfJob {
		s.release(now, r, TaskKilled)
	}
	jr.running = -1
	rec := &s.schedule.Jobs[j]
	rec.Finish = now
	rec.Killed = true
	s.assign(now)
}

// refreshShares brings the touched tenants' shareCap up to date and
// reruns the water-fill when one moved. The fair shares are a pure
// function of the shareCap vector, so when none moved they are current.
//
//tempo:hot
func (s *scheduler) refreshShares() {
	moved := false
	for w, word := range s.touched {
		for ; word != 0; word &= word - 1 {
			ts := &s.tenants[w<<6|bits.TrailingZeros64(word)]
			if c := min(ts.effMax(s.capacity), ts.demand()); c != ts.shareCap {
				ts.shareCap = c
				moved = true
			}
		}
	}
	if moved {
		s.computeFairShares()
	}
}

// computeFairShares runs weighted water-filling with floors (min shares),
// ceilings (max shares) and demand caps over the tenants' shareCap,
// storing each tenant's instantaneous fair share and touching every
// tenant whose share changed. It runs only when refreshShares finds a cap
// that moved, on a reused value-slice buffer rather than per-call
// allocations.
//
//tempo:hot
func (s *scheduler) computeFairShares() {
	if len(s.tenants) > cap(s.fair) {
		s.fair = make([]ws, len(s.tenants))
	}
	s.fills++
	active := s.fair[:len(s.tenants)]
	n := 0
	var floorSum float64
	for i := range s.tenants {
		ts := &s.tenants[i]
		// The capacity is positive, so effMax is, and a zero cap means
		// no demand.
		if ts.shareCap == 0 {
			continue
		}
		// The bounds are container counts: taking the minimum before the
		// conversion gives math.Min's result without its NaN and
		// signed-zero handling. shareCap is at most the capacity, so the
		// floor is minTarget capped by it.
		floor := float64(min(ts.cfg.MinShare, ts.shareCap))
		w := &active[n]
		n++
		w.ts = int32(i)
		w.cap = float64(ts.shareCap)
		w.floor = floor
		w.weight = ts.cfg.Weight
		w.fixed = false
		floorSum += floor
	}
	active = active[:n]
	if total := float64(s.capacity); floorSum > total {
		// Overcommitted min shares: scale floors down proportionally.
		for i := range active {
			w := &active[i]
			w.share = w.floor * total / floorSum
		}
	} else {
		waterFill(active, total-floorSum)
	}
	// active is in tenants order; every other tenant's share is zero.
	k := 0
	for i := range s.tenants {
		share := 0.0
		if k < len(active) && active[k].ts == int32(i) {
			share = active[k].share
			k++
		}
		if ts := &s.tenants[i]; math.Float64bits(share) != math.Float64bits(ts.fairShare) {
			ts.fairShare = share
			s.touch(int32(i))
		}
	}
}

// waterFill raises the active tenants from their floors by weight until
// remaining is spent, fixing tenants that hit their caps.
//
//tempo:hot
func waterFill(active []ws, remaining float64) {
	for i := range active {
		active[i].share = active[i].floor
	}
	for iter := 0; iter < len(active)+1; iter++ {
		var wsum float64
		for i := range active {
			if !active[i].fixed {
				wsum += active[i].weight
			}
		}
		if wsum == 0 || remaining <= 1e-9 {
			return
		}
		overflow := false
		for i := range active {
			w := &active[i]
			if w.fixed {
				continue
			}
			prop := w.share + remaining*w.weight/wsum
			if prop >= w.cap {
				remaining -= w.cap - w.share
				w.share = w.cap
				w.fixed = true
				overflow = true
			}
		}
		if !overflow {
			for i := range active {
				if !active[i].fixed {
					active[i].share += remaining * active[i].weight / wsum
				}
			}
			return
		}
	}
}

// updateStarvation maintains the two starvation clocks per tenant and the
// preemption-check events they arm, revisiting only the touched tenants.
// With no tenant waiting and no window open the pass would close closed
// windows and cancel events that are not pending, so it is skipped and
// the touched set carries over to the next pass.
//
//tempo:hot
func (s *scheduler) updateStarvation(now time.Duration) {
	if s.waiting == 0 && s.open == 0 {
		return
	}
	s.refreshShares()
	s.armClocks(now)
}

// armClocks is updateStarvation's pass, on current fair shares: it runs
// armClock on the touched tenants in index order and clears touched. On
// an untouched tenant armClock would do nothing: its starvation
// predicates read only its running count, pending deque and fair share,
// and a check it armed is still pending, since a firing touches it. So
// the engine sees the calls a pass over every tenant would make, in the
// same order.
func (s *scheduler) armClocks(now time.Duration) {
	s.passes++
	for w, word := range s.touched {
		s.visits += bits.OnesCount64(word)
		for ; word != 0; word &= word - 1 {
			i := int32(w<<6 | bits.TrailingZeros64(word))
			ts := &s.tenants[i]
			starvedMin := ts.pending.len() > 0 && ts.running < ts.minTarget(s.capacity)
			starvedShare := ts.pending.len() > 0 && float64(ts.running) < ts.fairShare-1e-9
			s.armClock(now, i, starvedMin, &ts.starvedMinSince, &ts.minCheckEv, ts.cfg.MinSharePreemptTimeout, evMinCheck)
			s.armClock(now, i, starvedShare, &ts.starvedShareSince, &ts.shareCheckEv, ts.cfg.SharePreemptTimeout, evShareCheck)
		}
		s.touched[w] = 0
	}
}

//tempo:hot
func (s *scheduler) armClock(now time.Duration, tenant int32, starved bool, since *time.Duration, ev *int32, timeout time.Duration, kind uint8) {
	if !starved {
		if *since >= 0 {
			s.open--
		}
		*since = -1
		s.engine.Cancel(*ev)
		return
	}
	if timeout <= 0 {
		return // preemption disabled at this level
	}
	if *since < 0 {
		*since = now
		s.open++
	} else if s.engine.Pending(*ev) {
		return // already armed for the current starvation window
	}
	// A closed window has no pending check (TestKernelCounters), so this
	// arms a fresh one.
	*ev = s.engine.At(*since+timeout, prioPreempt, kind, tenant)
}

// preemptCheck fires when a tenant has been continuously starved for its
// configured timeout: kill the most recently launched tasks of over-share
// tenants until the starved tenant can reach its target.
func (s *scheduler) preemptCheck(now time.Duration, tenant int32, minLevel bool) {
	s.touch(tenant)
	s.refreshShares()
	ts := &s.tenants[tenant]
	var since time.Duration
	var target int
	if minLevel {
		since = ts.starvedMinSince
		target = ts.minTarget(s.capacity)
	} else {
		since = ts.starvedShareSince
		target = int(math.Floor(ts.fairShare + 1e-9))
	}
	timeout := ts.cfg.MinSharePreemptTimeout
	if !minLevel {
		timeout = ts.cfg.SharePreemptTimeout
	}
	if since < 0 || ts.pending.len() == 0 || now < since+timeout {
		s.armClocks(now) // on the shares refreshed above: nothing changed since
		return
	}
	// Restart the starvation window so the next check (if the tenant stays
	// starved, e.g. because no victims were eligible) fires one full
	// timeout from now rather than immediately.
	if minLevel {
		ts.starvedMinSince = now
	} else {
		ts.starvedShareSince = now
	}
	need := target - ts.running - s.free
	if need > 0 {
		s.killVictims(now, tenant, need)
	}
	s.assign(now)
}

// killVictims preempts up to need containers from tenants running above
// their fair share, most recently launched attempts first. An attempt's
// index is its launch order.
//
//tempo:hot
func (s *scheduler) killVictims(now time.Duration, starved int32, need int) {
	victims := s.victims[:0]
	for i := range s.tenants {
		ts := &s.tenants[i]
		if int32(i) == starved {
			continue
		}
		over := float64(ts.running) - ts.fairShare
		if over < 1 {
			continue
		}
		// Candidates: newest first, at most `over` from this tenant so we
		// never push a victim below its own fair share.
		allowed := int(over)
		taken := 0
		for k := len(ts.ranked) - 1; k >= 0 && taken < allowed; k-- {
			r := ts.ranked[k]
			if s.runs[r].done {
				continue
			}
			victims = append(victims, r)
			taken++
		}
		s.compactRanked(ts)
	}
	s.victims = victims // keep the grown backing for the next call
	slices.Sort(victims)
	for k := len(victims) - 1; k >= 0 && need > 0; k-- {
		s.preempt(now, victims[k])
		need--
	}
}

// preempt kills attempt r; the task restarts from scratch at the front of
// its tenant's queue (it keeps its place in line, but its work is lost —
// the effect Figure 1 illustrates).
func (s *scheduler) preempt(now time.Duration, r int32) {
	s.release(now, r, TaskPreempted)
	rt := &s.runs[r]
	ts := &s.tenants[rt.tenant]
	if ts.pending.len() == 0 {
		s.setWaiting(rt.tenant, true)
	}
	ts.pending.pushFront(rt.task)
}

// compactRanked drops completed attempts from the tenant's launch-order
// list.
func (s *scheduler) compactRanked(ts *tenantState) {
	kept := ts.ranked[:0]
	for _, r := range ts.ranked {
		if !s.runs[r].done {
			kept = append(kept, r)
		}
	}
	ts.ranked = kept
}

// truncate finalizes attempts still running at the horizon.
func (s *scheduler) truncate(horizon time.Duration) {
	for r := range s.runs {
		rt := &s.runs[r]
		if rt.done {
			continue
		}
		rec := &s.schedule.Tasks[r]
		rec.End = horizon
		rec.Outcome = TaskTruncated
		rt.done = true
	}
	for i := range s.schedule.Jobs {
		rec := &s.schedule.Jobs[i]
		if !rec.Completed && !rec.Killed {
			rec.Finish = horizon
		}
	}
}

// String renders a compact summary, handy in tests and logs.
func (s *Schedule) String() string {
	useful, wasted := s.ContainerSeconds()
	return fmt.Sprintf("schedule{jobs=%d tasks=%d preempted=%d useful=%s wasted=%s horizon=%s}",
		len(s.Jobs), len(s.Tasks), s.PreemptionCount("", nil), useful, wasted, s.Horizon)
}
