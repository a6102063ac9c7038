package cluster

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"tempo/internal/arena"
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

// Options configure a cluster run.
type Options struct {
	// Noise, when non-nil, turns the run into a noisy emulation of a
	// production cluster. Nil runs the deterministic Schedule Predictor.
	Noise *NoiseModel
	// Horizon, when positive, stops the run at that virtual time, leaving
	// still-running work truncated. Zero runs until all jobs finish.
	Horizon time.Duration
}

// task is one task of one job; it may go through several attempts.
type task struct {
	job      *jobRun
	stage    int
	index    int
	kind     workload.TaskKind
	duration time.Duration
	attempt  int
}

// runningTask is a task attempt currently occupying a container.
type runningTask struct {
	t         *task
	tenant    *tenantState
	start     time.Duration
	finishEv  *sim.Event
	recIdx    int
	launchSeq uint64
	done      bool
	// nextOfJob links the attempts of a job that has a kill event (see
	// jobRun.running).
	nextOfJob *runningTask
	// plannedOutcome is how the attempt will end if it runs to its finish
	// event: TaskFinished, or TaskFailed when the noise model injected a
	// failure at launch. Preemption and kills override it via release.
	plannedOutcome TaskOutcome
}

// jobRun tracks a job's progress through its stages.
type jobRun struct {
	spec      *workload.JobSpec
	remaining []int // unfinished task count per stage
	unlocked  []bool
	recIdx    int
	finished  bool
	killed    bool
	killEv    *sim.Event
	// running heads the job's attempts, newest first, linked through
	// runningTask.nextOfJob. It is kept only for jobs with a kill event:
	// killJob is its only reader, and its releases commute, so the order
	// does not matter. An intrusive list costs no allocation per job.
	running *runningTask
}

// taskDeque is the tenant's pending-task FIFO with O(1) front pushes for
// preempted tasks. A head index replaces the pending[1:] re-slicing the
// queue used to do, which defeated append's amortized growth (the slice's
// base kept advancing, so the backing array was re-allocated over and
// over on steady task flow).
type taskDeque struct {
	buf  []*task
	head int
}

func (d *taskDeque) len() int { return len(d.buf) - d.head }

func (d *taskDeque) pushBack(t *task) { d.buf = append(d.buf, t) }

// pushFront reuses the slot freed by the last popFront when one exists;
// preemptions (the only front-pushers) always follow pops, so the
// allocating fallback is rare.
func (d *taskDeque) pushFront(t *task) {
	if d.head > 0 {
		d.head--
		d.buf[d.head] = t
		return
	}
	d.buf = append(d.buf, nil)
	copy(d.buf[1:], d.buf)
	d.buf[0] = t
}

func (d *taskDeque) popFront() *task {
	t := d.buf[d.head]
	d.buf[d.head] = nil
	d.head++
	if d.head == len(d.buf) {
		d.buf = d.buf[:0]
		d.head = 0
	}
	return t
}

// filter keeps only tasks satisfying keep, preserving order.
func (d *taskDeque) filter(keep func(*task) bool) {
	kept := d.buf[:d.head]
	for _, t := range d.buf[d.head:] {
		if keep(t) {
			kept = append(kept, t)
		}
	}
	clear(d.buf[len(kept):])
	d.buf = kept
}

// tenantState is a tenant queue inside the RM.
type tenantState struct {
	name string
	cfg  TenantConfig

	pending taskDeque // FIFO; preempted tasks are pushed to the front
	running int
	ranked  []*runningTask // launch order, lazily compacted

	fairShare float64 // instantaneous weighted fair share

	starvedMinSince   time.Duration
	starvedShareSince time.Duration
	minCheckEv        *sim.Event
	shareCheckEv      *sim.Event
}

func (t *tenantState) demand() int { return t.running + t.pending.len() }

// effMax returns the tenant's container ceiling.
func (t *tenantState) effMax(capacity int) int {
	if t.cfg.MaxShare <= 0 || t.cfg.MaxShare > capacity {
		return capacity
	}
	return t.cfg.MaxShare
}

// minTarget is the containers the tenant is entitled to at the min-share
// level right now: its floor, capped by demand.
func (t *tenantState) minTarget(capacity int) int {
	m := t.cfg.MinShare
	if m > capacity {
		m = capacity
	}
	if d := t.demand(); m > d {
		m = d
	}
	return m
}

// ws is one active tenant's state inside computeFairShares' water-filling.
type ws struct {
	ts    *tenantState
	cap   float64
	floor float64
	share float64
	fixed bool
}

// tenantBufs is one tenant's growable buffers, kept across runs: a
// tenantState comes zeroed from its arena, so without them every run would
// regrow every tenant's deque and ranked list from nil.
type tenantBufs struct {
	pending []*task
	ranked  []*runningTask
}

// scheduler is the RM simulation state. It is built to be reused: init
// returns every field to its start-of-run state while keeping the engine's
// event arena, the bookkeeping arenas, the tenants' buffers and the
// hot-loop buffers, so a warmed scheduler runs a simulation with a
// constant number of heap allocations, whatever the trace (see Sim).
type scheduler struct {
	engine   sim.Engine
	cfg      Config
	capacity int
	free     int
	opts     Options
	rng      *rand.Rand

	tenants    map[string]*tenantState
	tenantList []*tenantState // sorted by name for determinism

	schedule  *Schedule
	launchSeq uint64
	allRun    []*runningTask // live attempts for horizon truncation

	// waiting counts the tenants with a non-empty pending deque, open the
	// starvation windows with since >= 0. While both are zero no tenant
	// can be picked or starve and every check event is nil or cancelled (a
	// live one implies since >= 0), so assign and updateStarvation skip
	// their per-tenant passes.
	waiting, open int

	// Reused hot-loop buffers.
	fair    []ws           // computeFairShares scratch
	victims []*runningTask // killVictims scratch
	spare   []tenantBufs   // the last runs' tenant buffers, by tenantList index

	// Arenas for per-run bookkeeping objects.
	jobRuns arena.Arena[jobRun]
	tasks   arena.Arena[task]
	runs    arena.Arena[runningTask]
	tstates arena.Arena[tenantState]
	ints    arena.SliceArena[int]
	bools   arena.SliceArena[bool]

	// Backing arrays for the produced Schedule, reused across runs; a
	// detached schedule gets copies (see Sim.Detach).
	tasksBuf []TaskRecord
	jobsBuf  []JobRecord

	// Shared event handlers (sim.Engine.AtArg): bound once per scheduler,
	// so scheduling an event does not allocate a closure.
	fnSubmit       func(now time.Duration, arg any)
	fnFinish       func(now time.Duration, arg any)
	fnKill         func(now time.Duration, arg any)
	fnPreemptMin   func(now time.Duration, arg any)
	fnPreemptShare func(now time.Duration, arg any)
}

// bind installs the shared event handlers. Called once per scheduler
// value, before its first run.
func (s *scheduler) bind() {
	s.fnSubmit = func(now time.Duration, arg any) {
		s.submit(now, arg.(*workload.JobSpec))
	}
	s.fnFinish = func(now time.Duration, arg any) {
		rt := arg.(*runningTask)
		s.finish(now, rt, rt.plannedOutcome)
	}
	s.fnKill = func(now time.Duration, arg any) {
		jr := arg.(*jobRun)
		s.killJob(now, s.tenants[jr.spec.Tenant], jr)
	}
	s.fnPreemptMin = func(now time.Duration, arg any) {
		ts := arg.(*tenantState)
		ts.minCheckEv = nil
		s.preemptCheck(now, ts, true)
	}
	s.fnPreemptShare = func(now time.Duration, arg any) {
		ts := arg.(*tenantState)
		ts.shareCheckEv = nil
		s.preemptCheck(now, ts, false)
	}
}

// init resets the scheduler for a fresh run of the trace under cfg. Every
// piece of per-run state is restored to its start state; arena blocks, the
// event queue's backing array, the tenants' buffers and the schedule's
// record arrays are recycled rather than re-allocated.
func (s *scheduler) init(trace *workload.Trace, cfg Config, opts Options) {
	s.reclaimTenantBufs()
	s.engine.Reset()
	s.cfg = cfg
	s.capacity = cfg.TotalContainers
	s.free = cfg.TotalContainers
	s.opts = opts
	if s.tenants == nil {
		s.tenants = make(map[string]*tenantState)
	} else {
		clear(s.tenants)
	}
	s.tenantList = s.tenantList[:0]
	s.launchSeq = 0
	s.waiting, s.open = 0, 0
	s.allRun = s.allRun[:0]
	s.fair = s.fair[:0]
	s.victims = s.victims[:0]
	s.jobRuns.Reset()
	s.tasks.Reset()
	s.runs.Reset()
	s.tstates.Reset()
	s.ints.Reset()
	s.bools.Reset()
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
	for i := range trace.Jobs {
		name := trace.Jobs[i].Tenant
		if _, ok := s.tenants[name]; !ok {
			ts := s.tstates.Get()
			ts.name = name
			ts.cfg = cfg.Tenant(name)
			ts.starvedMinSince = -1
			ts.starvedShareSince = -1
			s.tenants[name] = ts
			s.tenantList = append(s.tenantList, ts)
		}
	}
	slices.SortFunc(s.tenantList, func(a, b *tenantState) int { return strings.Compare(a.name, b.name) })
	for i, ts := range s.tenantList {
		if i < len(s.spare) {
			ts.pending.buf, ts.ranked = s.spare[i].pending, s.spare[i].ranked
		}
	}
	for i := range trace.Jobs {
		s.engine.AtArg(trace.Jobs[i].Submit, prioSubmit, s.fnSubmit, &trace.Jobs[i])
	}
}

// reclaimTenantBufs takes the last run's tenant buffers back into spare,
// cleared so nothing of that run stays reachable through them. Buffers
// only grow, and init hands spare[i] to the i-th tenant by name, so a Sim
// rerunning one trace regrows nothing.
func (s *scheduler) reclaimTenantBufs() {
	for i, ts := range s.tenantList {
		if i == len(s.spare) {
			s.spare = append(s.spare, tenantBufs{})
		}
		clear(ts.pending.buf[:cap(ts.pending.buf)])
		clear(ts.ranked[:cap(ts.ranked)])
		s.spare[i] = tenantBufs{pending: ts.pending.buf[:0], ranked: ts.ranked[:0]}
	}
}

// run drives the event loop to completion (or the horizon). Together
// with the handlers below it is the what-if inner loop's simulation
// kernel, alloc-gated by TestSimSteadyStateAllocs and by
// BenchmarkWhatIfBatch's allocation ceiling.
//
//tempo:hot
func (s *scheduler) run() *Schedule {
	if s.opts.Horizon > 0 {
		s.engine.RunUntil(s.opts.Horizon)
		s.truncate(s.opts.Horizon)
	} else {
		s.engine.Run()
	}
	s.schedule.Horizon = s.engine.Now()
	return s.schedule
}

// submit admits a job: record it, unlock dependency-free stages, enqueue
// their tasks, and try to place work.
//
//tempo:hot
func (s *scheduler) submit(now time.Duration, spec *workload.JobSpec) {
	jr := s.jobRuns.Get()
	jr.spec = spec
	jr.remaining = s.ints.Take(len(spec.Stages))
	jr.unlocked = s.bools.Take(len(spec.Stages))
	jr.recIdx = len(s.schedule.Jobs)
	s.schedule.Jobs = append(s.schedule.Jobs, JobRecord{
		ID:       spec.ID,
		Tenant:   spec.Tenant,
		Submit:   now,
		Deadline: spec.Deadline,
	})
	for i := range spec.Stages {
		jr.remaining[i] = len(spec.Stages[i].Tasks)
	}
	ts := s.tenants[spec.Tenant]
	for i := range spec.Stages {
		if len(spec.Stages[i].DependsOn) == 0 {
			s.unlockStage(ts, jr, i)
		}
	}
	if s.opts.Noise != nil {
		if killAt, ok := s.opts.Noise.jobKillTime(s.rng, spec, now); ok {
			jr.killEv = s.engine.AtArg(killAt, prioKill, s.fnKill, jr)
		}
	}
	s.assign(now)
}

// unlockStage enqueues a stage's tasks at the tail of the tenant queue.
func (s *scheduler) unlockStage(ts *tenantState, jr *jobRun, stage int) {
	jr.unlocked[stage] = true
	specs := jr.spec.Stages[stage].Tasks
	if ts.pending.len() == 0 && len(specs) > 0 {
		s.waiting++
	}
	for i := range specs {
		t := s.tasks.Get()
		t.job = jr
		t.stage = stage
		t.index = i
		t.kind = specs[i].Kind
		t.duration = specs[i].Duration
		ts.pending.pushBack(t)
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
		if ts == nil {
			break
		}
		s.launch(now, ts)
	}
	s.updateStarvation(now)
}

// pickTenant returns the next tenant entitled to a container, or nil.
// Order: below-min-share tenants first (most deficient relative to the
// floor), then lowest running/weight ratio; ratio ties go to the heavier
// tenant (as in YARN's fair-share comparator) so synchronized task waves
// don't systematically skew the split, then to the lexicographically
// smaller name for determinism.
//
//tempo:hot
func (s *scheduler) pickTenant() *tenantState {
	var best *tenantState
	var bestBelowMin bool
	var bestKey float64
	const eps = 1e-9
	for _, ts := range s.tenantList {
		if ts.pending.len() == 0 || ts.running >= ts.effMax(s.capacity) {
			continue
		}
		belowMin := ts.running < ts.minTarget(s.capacity)
		var key float64
		if belowMin {
			key = float64(ts.running) / math.Max(float64(ts.cfg.MinShare), 1)
		} else {
			key = float64(ts.running) / ts.cfg.Weight
		}
		switch {
		case best == nil,
			belowMin && !bestBelowMin,
			belowMin == bestBelowMin && key < bestKey-eps,
			belowMin == bestBelowMin && math.Abs(key-bestKey) <= eps && ts.cfg.Weight > best.cfg.Weight:
			best, bestBelowMin, bestKey = ts, belowMin, key
		}
	}
	return best
}

// launch starts the tenant's next pending task in a free container.
//
//tempo:hot
func (s *scheduler) launch(now time.Duration, ts *tenantState) {
	t := s.popPending(ts)
	if t == nil {
		return
	}
	t.attempt++
	dur := t.duration
	fail := false
	if s.opts.Noise != nil {
		dur, fail = s.opts.Noise.attemptDuration(s.rng, dur)
	}
	rt := s.runs.Get()
	rt.t = t
	rt.tenant = ts
	rt.start = now
	rt.recIdx = len(s.schedule.Tasks)
	rt.launchSeq = s.launchSeq
	rt.plannedOutcome = TaskFinished
	if fail {
		rt.plannedOutcome = TaskFailed
	}
	s.launchSeq++
	s.schedule.Tasks = append(s.schedule.Tasks, TaskRecord{
		JobID:   t.job.spec.ID,
		Tenant:  ts.name,
		Kind:    t.kind,
		Attempt: t.attempt,
		Start:   now,
		Outcome: TaskTruncated, // finalized on completion
	})
	s.free--
	ts.running++
	ts.ranked = append(ts.ranked, rt)
	if t.job.killEv != nil {
		rt.nextOfJob = t.job.running
		t.job.running = rt
	}
	s.allRun = append(s.allRun, rt)
	rt.finishEv = s.engine.AtArg(now+dur, prioFinish, s.fnFinish, rt)
}

// popPending removes and returns the tenant's next live pending task,
// discarding tasks whose job has been killed.
func (s *scheduler) popPending(ts *tenantState) *task {
	for ts.pending.len() > 0 {
		t := ts.pending.popFront()
		if ts.pending.len() == 0 {
			s.waiting--
		}
		if !t.job.killed {
			return t
		}
	}
	return nil
}

// finish ends an attempt with the given outcome. Failed attempts requeue.
//
//tempo:hot
func (s *scheduler) finish(now time.Duration, rt *runningTask, outcome TaskOutcome) {
	s.release(now, rt, outcome)
	t := rt.t
	switch outcome {
	case TaskFinished:
		jr := t.job
		jr.remaining[t.stage]--
		if jr.remaining[t.stage] == 0 {
			s.stageComplete(now, jr, t.stage)
		}
	case TaskFailed:
		// Lost work; the task restarts from scratch at the queue tail.
		if rt.tenant.pending.len() == 0 {
			s.waiting++
		}
		rt.tenant.pending.pushBack(t)
	}
	s.assign(now)
}

// release frees the container and finalizes the attempt record.
func (s *scheduler) release(now time.Duration, rt *runningTask, outcome TaskOutcome) {
	if rt.done {
		return
	}
	rt.done = true
	if rt.finishEv != nil {
		rt.finishEv.Cancel()
	}
	rec := &s.schedule.Tasks[rt.recIdx]
	rec.End = now
	rec.Outcome = outcome
	rt.tenant.running--
	s.free++
}

// stageComplete unlocks dependent stages and finishes the job when all
// stages are done.
func (s *scheduler) stageComplete(now time.Duration, jr *jobRun, stage int) {
	ts := s.tenants[jr.spec.Tenant]
	for i := range jr.spec.Stages {
		if jr.unlocked[i] {
			continue
		}
		ready := true
		for _, d := range jr.spec.Stages[i].DependsOn {
			if jr.remaining[d] > 0 {
				ready = false
				break
			}
		}
		if ready {
			s.unlockStage(ts, jr, i)
		}
	}
	for _, rem := range jr.remaining {
		if rem > 0 {
			return
		}
	}
	jr.finished = true
	if jr.killEv != nil {
		jr.killEv.Cancel()
	}
	rec := &s.schedule.Jobs[jr.recIdx]
	rec.Finish = now
	rec.Completed = true
}

// killJob emulates a user/DBA killing a job: pending tasks evaporate and
// running attempts are terminated, their work lost.
func (s *scheduler) killJob(now time.Duration, ts *tenantState, jr *jobRun) {
	if jr.finished || jr.killed {
		return
	}
	jr.killed = true
	// Remove the job's pending tasks from the tenant queue.
	had := ts.pending.len() > 0
	ts.pending.filter(func(t *task) bool { return t.job != jr })
	if had && ts.pending.len() == 0 {
		s.waiting--
	}
	for rt := jr.running; rt != nil; rt = rt.nextOfJob {
		if !rt.done {
			s.release(now, rt, TaskKilled)
		}
	}
	jr.running = nil
	rec := &s.schedule.Jobs[jr.recIdx]
	rec.Finish = now
	rec.Killed = true
	s.assign(now)
}

// computeFairShares runs weighted water-filling with floors (min shares),
// ceilings (max shares), and demand caps, storing each tenant's
// instantaneous fair share. It runs once per event that leaves a tenant
// waiting or a starvation window open (updateStarvation) and once per
// preemption check, so its working set is a reused value-slice buffer
// rather than per-call allocations.
//
//tempo:hot
func (s *scheduler) computeFairShares() {
	active := s.fair[:0]
	var floorSum float64
	for _, ts := range s.tenantList {
		ts.fairShare = 0
		d := ts.demand()
		if d == 0 {
			continue
		}
		capacity := math.Min(float64(ts.effMax(s.capacity)), float64(d))
		floor := math.Min(float64(ts.minTarget(s.capacity)), capacity)
		active = append(active, ws{ts: ts, cap: capacity, floor: floor})
		floorSum += floor
	}
	s.fair = active // keep the grown backing for the next call
	if len(active) == 0 {
		return
	}
	total := float64(s.capacity)
	if floorSum > total {
		// Overcommitted min shares: scale floors down proportionally.
		for i := range active {
			w := &active[i]
			w.share = w.floor * total / floorSum
			w.ts.fairShare = w.share
		}
		return
	}
	remaining := total - floorSum
	for i := range active {
		active[i].share = active[i].floor
	}
	// Water-fill the remainder by weight, fixing tenants that hit caps.
	for iter := 0; iter < len(active)+1; iter++ {
		var wsum float64
		for i := range active {
			if !active[i].fixed {
				wsum += active[i].ts.cfg.Weight
			}
		}
		if wsum == 0 || remaining <= 1e-9 {
			break
		}
		overflow := false
		for i := range active {
			w := &active[i]
			if w.fixed {
				continue
			}
			prop := w.share + remaining*w.ts.cfg.Weight/wsum
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
					active[i].share += remaining * active[i].ts.cfg.Weight / wsum
				}
			}
			break
		}
	}
	for i := range active {
		active[i].ts.fairShare = active[i].share
	}
}

// updateStarvation maintains the two starvation clocks per tenant and the
// preemption-check events they arm. With no tenant waiting and no window
// open the pass would write -1 over -1 and cancel nil-or-cancelled events.
//
//tempo:hot
func (s *scheduler) updateStarvation(now time.Duration) {
	if s.waiting == 0 && s.open == 0 {
		return
	}
	s.computeFairShares()
	s.armClocks(now)
}

// armClocks is updateStarvation's pass, over just-computed fair shares.
func (s *scheduler) armClocks(now time.Duration) {
	for _, ts := range s.tenantList {
		starvedMin := ts.pending.len() > 0 && ts.running < ts.minTarget(s.capacity)
		starvedShare := ts.pending.len() > 0 && float64(ts.running) < ts.fairShare-1e-9
		s.armClock(now, ts, starvedMin, &ts.starvedMinSince, &ts.minCheckEv, ts.cfg.MinSharePreemptTimeout, true)
		s.armClock(now, ts, starvedShare, &ts.starvedShareSince, &ts.shareCheckEv, ts.cfg.SharePreemptTimeout, false)
	}
}

//tempo:hot
func (s *scheduler) armClock(now time.Duration, ts *tenantState, starved bool, since *time.Duration, ev **sim.Event, timeout time.Duration, minLevel bool) {
	if !starved {
		if *since >= 0 {
			s.open--
		}
		*since = -1
		if *ev != nil {
			// Keep the pointer: tenants oscillate between starved and
			// satisfied on every assignment, and the next re-arm revives
			// this event in place via Reschedule instead of allocating a
			// fresh one and leaving a dead entry in the queue.
			(*ev).Cancel()
		}
		return
	}
	if timeout <= 0 {
		return // preemption disabled at this level
	}
	if *since < 0 {
		*since = now
		s.open++
	} else if *ev != nil && !(*ev).Canceled() {
		return // already armed for the current starvation window
	}
	fireAt := *since + timeout
	if *ev != nil && s.engine.Reschedule(*ev, fireAt) {
		return
	}
	fn := s.fnPreemptShare
	if minLevel {
		fn = s.fnPreemptMin
	}
	*ev = s.engine.AtArg(fireAt, prioPreempt, fn, ts)
}

// preemptCheck fires when a tenant has been continuously starved for its
// configured timeout: kill the most recently launched tasks of over-share
// tenants until the starved tenant can reach its target.
func (s *scheduler) preemptCheck(now time.Duration, ts *tenantState, minLevel bool) {
	s.computeFairShares()
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
		s.armClocks(now) // on the shares computed above: nothing changed since
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
		s.killVictims(now, ts, need)
	}
	s.assign(now)
}

// killVictims preempts up to need containers from tenants running above
// their fair share, most recently launched attempts first. launchSeq is
// unique, so any correct sort yields the one order.
//
//tempo:hot
func (s *scheduler) killVictims(now time.Duration, starved *tenantState, need int) {
	victims := s.victims[:0]
	for _, ts := range s.tenantList {
		if ts == starved {
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
		for i := len(ts.ranked) - 1; i >= 0 && taken < allowed; i-- {
			rt := ts.ranked[i]
			if rt.done {
				continue
			}
			victims = append(victims, rt)
			taken++
		}
		ts.compactRanked()
	}
	s.victims = victims // keep the grown backing for the next call
	slices.SortFunc(victims, func(a, b *runningTask) int { return cmp.Compare(b.launchSeq, a.launchSeq) })
	for _, rt := range victims {
		if need <= 0 {
			break
		}
		s.preempt(now, rt)
		need--
	}
}

// preempt kills one attempt; the task restarts from scratch at the front of
// its tenant's queue (it keeps its place in line, but its work is lost —
// the effect Figure 1 illustrates).
func (s *scheduler) preempt(now time.Duration, rt *runningTask) {
	s.release(now, rt, TaskPreempted)
	if rt.tenant.pending.len() == 0 {
		s.waiting++
	}
	rt.tenant.pending.pushFront(rt.t)
}

// compactRanked drops completed attempts from the launch-order list.
func (t *tenantState) compactRanked() {
	kept := t.ranked[:0]
	for _, rt := range t.ranked {
		if !rt.done {
			kept = append(kept, rt)
		}
	}
	t.ranked = kept
}

// truncate finalizes attempts still running at the horizon.
func (s *scheduler) truncate(horizon time.Duration) {
	for _, rt := range s.allRun {
		if rt.done {
			continue
		}
		rec := &s.schedule.Tasks[rt.recIdx]
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
