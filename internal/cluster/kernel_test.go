package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"tempo/internal/workload"
)

var updateKernel = flag.Bool("update-kernel", false, "rewrite testdata/kernel_digests.json")

const kernelDigestFile = "kernel_digests.json"

// kernelCase is one row of the kernel exactness table: a seeded trace, a
// configuration and run options that together push the scheduler through
// a corner the scenario goldens barely reach.
type kernelCase struct {
	name  string
	trace *workload.Trace
	cfg   Config
	opts  Options
}

// manyTenants returns n profiles of alternating best-effort and
// deadline-driven tenants, each a small fraction of the two-tenant rates
// so most tenants are idle at any instant.
func manyTenants(n int, scale float64) []workload.TenantProfile {
	ps := make([]workload.TenantProfile, n)
	for i := range ps {
		name := fmt.Sprintf("t%04d", i)
		if i%2 == 0 {
			ps[i] = workload.BestEffort(name, scale)
		} else {
			ps[i] = workload.DeadlineDriven(name, scale)
		}
	}
	return ps
}

func kernelTrace(tb testing.TB, profiles []workload.TenantProfile, horizon time.Duration, seed int64) *workload.Trace {
	tb.Helper()
	tr, err := workload.Generate(profiles, workload.GenerateOptions{Horizon: horizon, Seed: seed, Name: "kernel"})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// tieTrace is three tenants' jobs on a nanosecond grid: tasks of one to
// three nanoseconds, one job submitted every nanosecond, so event
// instants collide constantly. A job's kill lands a random fraction of
// its few-nanosecond critical path after its submission, which puts it
// on the same grid.
func tieTrace() *workload.Trace {
	jobs := make([]workload.JobSpec, 40)
	for i := range jobs {
		d := time.Duration(1 + i%3)
		jobs[i] = workload.NewMapReduceJob(fmt.Sprintf("j%02d", i), string(rune('A'+i%3)), time.Duration(i),
			uniformTasks(1+i%4, d), []time.Duration{d})
	}
	tr := &workload.Trace{Name: "ties", Horizon: time.Hour, Jobs: jobs}
	tr.Sort()
	return tr
}

// kernelConfig gives every tenant of the trace the parameters tune
// returns for its index.
func kernelConfig(tr *workload.Trace, capacity int, tune func(i int) TenantConfig) Config {
	cfg := Config{TotalContainers: capacity, Tenants: map[string]TenantConfig{}}
	for i, name := range tr.Tenants() {
		cfg.Tenants[name] = tune(i)
	}
	return cfg
}

func kernelCases(tb testing.TB) []kernelCase {
	hundred := kernelTrace(tb, manyTenants(100, 0.3), time.Hour, 11)
	six := kernelTrace(tb, manyTenants(6, 1), 2*time.Hour, 12)
	ties := tieTrace()
	mixed := func(i int) TenantConfig {
		tc := TenantConfig{Weight: 1 + float64(i%4)}
		if i%5 == 0 {
			tc.MinShare, tc.MinSharePreemptTimeout = 2, 30*time.Second
		}
		if i%3 == 0 {
			tc.SharePreemptTimeout = 2 * time.Minute
		}
		return tc
	}
	cases := []kernelCase{
		{"idle-heavy-100", hundred, kernelConfig(hundred, 1200, mixed), Options{}},
		{"starved-100", hundred, kernelConfig(hundred, 12, mixed), Options{}},
		{"hair-trigger", six, kernelConfig(six, 24, func(i int) TenantConfig {
			return TenantConfig{Weight: 1 + float64(i), MinShare: 3, MinSharePreemptTimeout: time.Second, SharePreemptTimeout: time.Second}
		}), Options{}},
		{"overcommitted-min", six, kernelConfig(six, 20, func(i int) TenantConfig {
			return TenantConfig{Weight: 1, MinShare: 8, MinSharePreemptTimeout: 20 * time.Second, SharePreemptTimeout: time.Minute}
		}), Options{}},
		{"max-caps", six, kernelConfig(six, 40, func(i int) TenantConfig {
			return TenantConfig{Weight: 1 + float64(i%2), MaxShare: 3 + i, SharePreemptTimeout: 45 * time.Second}
		}), Options{}},
		{"noise-failures-kills", six, kernelConfig(six, 30, mixed),
			Options{Noise: &NoiseModel{DurationSigma: 0.4, FailureProb: 0.15, JobKillProb: 0.2, Seed: 13}}},
		{"noise-starved-100", hundred, kernelConfig(hundred, 25, mixed),
			Options{Noise: &NoiseModel{DurationSigma: 0.3, FailureProb: 0.1, JobKillProb: 0.1, Seed: 14}, Horizon: 90 * time.Minute}},
		{"horizon-truncated", six, kernelConfig(six, 16, mixed), Options{Horizon: 50 * time.Minute}},
		// Long timeouts on a contended cluster: starvation windows close
		// and reopen while their check events are still queued, so
		// cancelled checks are re-armed many times before one fires.
		{"check-rearmed", six, kernelConfig(six, 18, func(i int) TenantConfig {
			return TenantConfig{Weight: 1 + float64(i%3), MinShare: 2, MinSharePreemptTimeout: 10 * time.Minute, SharePreemptTimeout: 15 * time.Minute}
		}), Options{}},
		// Hair-trigger preemption under heavy failures and kills: killed
		// jobs carry preempted and failed attempts when the kill lands.
		{"kill-after-preempt-and-fail", six, kernelConfig(six, 24, func(i int) TenantConfig {
			return TenantConfig{Weight: 1 + float64(i), MinShare: 3, MinSharePreemptTimeout: time.Second, SharePreemptTimeout: time.Second}
		}), Options{Noise: &NoiseModel{DurationSigma: 0.3, FailureProb: 0.3, JobKillProb: 0.5, Seed: 16}}},
		// Everything on a nanosecond grid: finishes, kills, submissions and
		// both preemption checks keep meeting at one instant.
		{"four-priority-ties", ties, kernelConfig(ties, 2, func(i int) TenantConfig {
			return TenantConfig{Weight: 1 + float64(i), MinShare: 1, MinSharePreemptTimeout: 1, SharePreemptTimeout: 2}
		}), Options{Noise: &NoiseModel{JobKillProb: 0.4, Seed: 17}}},
		// A horizon that cuts the run while starved tenants still have
		// live check events queued.
		{"horizon-live-checks", hundred, kernelConfig(hundred, 12, func(i int) TenantConfig {
			return TenantConfig{Weight: 1 + float64(i%4), MinShare: 1, MinSharePreemptTimeout: 5 * time.Minute, SharePreemptTimeout: 20 * time.Minute}
		}), Options{Horizon: 25 * time.Minute}},
	}
	// Small random traces and configurations (the property tests'
	// generator), half of them noisy: breadth where the rows above are
	// depth.
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 24; i++ {
		tr, cfg := randomScenario(rng)
		var opts Options
		if i%2 == 1 {
			opts.Noise = &NoiseModel{DurationSigma: 0.5, FailureProb: 0.2, JobKillProb: 0.15, Seed: int64(100 + i)}
		}
		if i%3 == 2 {
			opts.Horizon = 8 * time.Minute
		}
		cases = append(cases, kernelCase{fmt.Sprintf("random-%02d", i), tr, cfg, opts})
	}
	return cases
}

// scheduleDigest is sha256 over a fixed text rendering of the schedule's
// header and canonical event stream.
func scheduleDigest(s *Schedule) string {
	h := sha256.New()
	fmt.Fprintf(h, "capacity=%d horizon=%d jobs=%d tasks=%d\n", s.Capacity, s.Horizon, len(s.Jobs), len(s.Tasks))
	for _, e := range s.Events() {
		fmt.Fprintf(h, "%d %d %d %q %q %d %d %t %t %d %d %d\n",
			e.Time, e.Kind, e.Seq, e.Tenant, e.JobID, e.Delta, e.Deadline,
			e.Completed, e.Killed, e.TaskKind, e.Attempt, e.Outcome)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKernelDigests pins the scheduler kernel's output on the table
// above to digests generated before the kernel was made
// event-proportional: every row must reproduce its digest on a fresh Sim
// and on one Sim dirtied by every earlier row.
func TestKernelDigests(t *testing.T) {
	path := filepath.Join("testdata", kernelDigestFile)
	cases := kernelCases(t)
	got := make(map[string]string, len(cases))
	pooled := NewSim()
	for _, kc := range cases {
		fresh, err := NewSim().RunInto(kc.trace, kc.cfg, kc.opts)
		if err != nil {
			t.Fatalf("%s: %v", kc.name, err)
		}
		got[kc.name] = scheduleDigest(fresh)
		reused, err := pooled.RunInto(kc.trace, kc.cfg, kc.opts)
		if err != nil {
			t.Fatalf("%s (pooled): %v", kc.name, err)
		}
		if d := scheduleDigest(reused); d != got[kc.name] {
			t.Errorf("%s: pooled Sim digest %s differs from fresh Sim %s", kc.name, d, got[kc.name])
		}
	}
	if *updateKernel {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d rows, the table %d", kernelDigestFile, len(want), len(got))
	}
	for _, kc := range cases {
		if got[kc.name] != want[kc.name] {
			t.Errorf("%s: digest %s, want %s", kc.name, got[kc.name], want[kc.name])
		}
	}
}

// TestKernelSubmitOrder runs every table row whose submissions are all
// at distinct instants on its trace reversed: submissions are dispatched
// by time whatever the trace order, so each must reproduce its digest.
func TestKernelSubmitOrder(t *testing.T) {
	sm := NewSim()
	rows := 0
	for _, kc := range kernelCases(t) {
		jobs := kc.trace.Jobs
		distinct := true
		for i := 1; i < len(jobs); i++ {
			distinct = distinct && jobs[i].Submit > jobs[i-1].Submit
		}
		if !distinct {
			continue
		}
		want, err := sm.RunInto(kc.trace, kc.cfg, kc.opts)
		if err != nil {
			t.Fatal(err)
		}
		wantDigest := scheduleDigest(want)
		rev := *kc.trace
		rev.Jobs = slices.Clone(jobs)
		slices.Reverse(rev.Jobs)
		got, err := sm.RunInto(&rev, kc.cfg, kc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := scheduleDigest(got); d != wantDigest {
			t.Errorf("%s reversed: digest %s, want %s", kc.name, d, wantDigest)
		}
		rows++
	}
	if rows < 3 {
		t.Fatalf("only %d rows have distinct submission instants", rows)
	}
}

// configVariants returns configurations to run one table row under: the
// row's own, the same again, one with every unset max-share raised to
// the capacity (the same ceiling, so the same schedule), one with a
// container fewer, and one with the first tenant's weight doubled.
func configVariants(cfg Config) []Config {
	capped, fewer, heavier := cfg.Clone(), cfg.Clone(), cfg.Clone()
	for name, tc := range capped.Tenants {
		if tc.MaxShare == 0 && tc.MinShare <= cfg.TotalContainers {
			tc.MaxShare = cfg.TotalContainers
			capped.Tenants[name] = tc
		}
	}
	fewer.TotalContainers = max(cfg.TotalContainers-1, 1)
	first := ""
	for name := range heavier.Tenants {
		if first == "" || name < first {
			first = name
		}
	}
	if tc, ok := heavier.Tenants[first]; ok {
		tc.Weight *= 2
		heavier.Tenants[first] = tc
	}
	return []Config{cfg, cfg, capped, fewer, heavier}
}

// TestScheduleEqualExact holds Schedule.Equal, which certificate tests
// compare runs with, to its contract on every table row: two
// configurations that run the same schedule compare Equal, including two
// distinct ones on some row, and a one-field change of any task or job
// record, or of the header, makes the schedules differ.
func TestScheduleEqualExact(t *testing.T) {
	sm := NewSim()
	equalPairs := 0
	for _, kc := range kernelCases(t) {
		var scheds []*Schedule
		for _, cfg := range configVariants(kc.cfg) {
			s, err := sm.RunInto(kc.trace, cfg, kc.opts)
			if err != nil {
				t.Fatalf("%s: %v", kc.name, err)
			}
			sm.Detach()
			scheds = append(scheds, s)
		}
		if !scheds[0].Equal(scheds[1]) {
			t.Errorf("%s: two runs of one configuration are not Equal", kc.name)
		}
		for i := 2; i < len(scheds); i++ {
			for j := i + 1; j < len(scheds); j++ {
				if scheds[i].Equal(scheds[j]) {
					equalPairs++ // two distinct configurations, one schedule
				}
			}
		}

		s, base := scheds[0], scheds[1]
		changed := func(what string, i int, mutate, undo func()) {
			mutate()
			eq := s.Equal(base)
			undo()
			if eq {
				t.Errorf("%s: changing the %s (record %d) leaves the schedules Equal", kc.name, what, i)
			}
		}
		for _, i := range []int{0, len(s.Tasks) / 2, len(s.Tasks) - 1} {
			if i < 0 {
				continue
			}
			r := &s.Tasks[i]
			changed("task start", i, func() { r.Start++ }, func() { r.Start-- })
			changed("task end", i, func() { r.End++ }, func() { r.End-- })
			changed("task attempt", i, func() { r.Attempt++ }, func() { r.Attempt-- })
			changed("task outcome", i, func() { r.Outcome ^= 1 }, func() { r.Outcome ^= 1 })
			changed("task kind", i, func() { r.Kind++ }, func() { r.Kind-- })
			job := r.JobID
			changed("task job", i, func() { r.JobID += "'" }, func() { r.JobID = job })
		}
		for _, i := range []int{0, len(s.Jobs) / 2, len(s.Jobs) - 1} {
			if i < 0 {
				continue
			}
			j := &s.Jobs[i]
			changed("job finish", i, func() { j.Finish++ }, func() { j.Finish-- })
			changed("job completed", i, func() { j.Completed = !j.Completed }, func() { j.Completed = !j.Completed })
			changed("job killed", i, func() { j.Killed = !j.Killed }, func() { j.Killed = !j.Killed })
		}
		changed("capacity", 0, func() { s.Capacity++ }, func() { s.Capacity-- })
		changed("horizon", 0, func() { s.Horizon++ }, func() { s.Horizon-- })
		if !s.Equal(base) {
			t.Fatalf("%s: schedules differ after the mutations were undone", kc.name)
		}
	}
	if equalPairs == 0 {
		t.Error("no two distinct configurations of any row ran the same schedule: the equal side of the contract went untested")
	}
}

// TestKernelCounters steps the engine event by event over the same table
// and recounts the scheduler's incremental state from scratch after every
// event (see checkKernelCounters). At least one row must have skipped
// water-fills and tenant visits, or the skips went untested.
func TestKernelCounters(t *testing.T) {
	skipped := false
	for _, kc := range kernelCases(t) {
		c := checkKernelCounters(t, kc.name, kc.trace, kc.cfg, kc.opts)
		t.Logf("%-28s tenants=%4d passes=%6d fills=%6d visits=%8d", kc.name, c.tenants, c.passes, c.fills, c.visits)
		skipped = skipped || c.fills < c.passes && c.visits < c.tenants*c.passes
	}
	if !skipped {
		t.Error("no row skipped a water-fill and a tenant visit: the skips went untested")
	}
}

// FuzzKernelCounters runs checkKernelCounters on random small scenarios,
// with and without noise and a horizon.
func FuzzKernelCounters(f *testing.F) {
	f.Add(int64(1), false, false)
	f.Add(int64(15), true, false)
	f.Add(int64(-3), false, true)
	f.Add(int64(977), true, true)
	f.Fuzz(func(t *testing.T, seed int64, noisy, horizon bool) {
		tr, cfg := randomScenario(rand.New(rand.NewSource(seed)))
		var opts Options
		if noisy {
			opts.Noise = &NoiseModel{DurationSigma: 0.5, FailureProb: 0.2, JobKillProb: 0.15, Seed: seed}
		}
		if horizon {
			opts.Horizon = 8 * time.Minute
		}
		checkKernelCounters(t, fmt.Sprint(seed), tr, cfg, opts)
	})
}

// kernelCount is what one run's starvation passes did.
type kernelCount struct{ tenants, passes, fills, visits int }

// checkKernelCounters steps one run event by event and checks after
// every event that the scheduler's skip counters and sets equal a
// from-scratch recount:
//
//   - waiting, open and waitSet match the tenants' deques and windows,
//     and a window is open exactly when its check event is pending;
//   - every tenant outside touched has shareCap == min(effMax, demand);
//   - after an event that ran a pass, touched is empty;
//   - while touched is empty, every fairShare bit-equals a water-fill
//     over the current demands, computed into a copy;
//   - each window is open (since >= 0) exactly when the tenant is
//     starved at that level with a positive timeout, as a pass over
//     every tenant would leave it.
func checkKernelCounters(t testing.TB, name string, tr *workload.Trace, cfg Config, opts Options) kernelCount {
	t.Helper()
	sm := NewSim()
	s := &sm.s
	s.init(tr, cfg, opts)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: event %d at %v: %s", name, s.engine.Fired(), s.engine.Now(), fmt.Sprintf(format, args...))
	}
	bit := func(set []uint64, i int) bool { return set[i/64]>>(i%64)&1 == 1 }
	// fresh recomputes the fair shares on slices of its own.
	fresh := scheduler{capacity: s.capacity, touched: make([]uint64, len(s.touched))}
	for {
		passes := s.passes
		if !s.step() {
			break
		}
		touched := slices.ContainsFunc(s.touched, func(w uint64) bool { return w != 0 })
		if s.passes > passes && touched {
			fail("touched is not empty after a pass")
		}
		if !touched {
			fresh.tenants = append(fresh.tenants[:0], s.tenants...)
			for i := range fresh.tenants {
				ts := &fresh.tenants[i]
				ts.shareCap = min(ts.effMax(s.capacity), ts.demand())
				ts.fairShare = math.NaN()
			}
			fresh.computeFairShares()
		}
		waiting, open := 0, 0
		window := func(i int, level string, starved bool, timeout, since time.Duration, ev int32) {
			if since >= 0 {
				open++
			}
			if (since >= 0) != s.engine.Pending(ev) {
				fail("tenant %s: %s window open %t, check event pending %t", s.names[i], level, since >= 0, s.engine.Pending(ev))
			}
			if want := starved && timeout > 0; (since >= 0) != want {
				fail("tenant %s: %s window open %t, a full pass would leave it %t", s.names[i], level, since >= 0, want)
			}
		}
		for i := range s.tenants {
			ts := &s.tenants[i]
			if ts.pending.len() > 0 {
				waiting++
			}
			if inSet := bit(s.waitSet, i); inSet != (ts.pending.len() > 0) {
				fail("tenant %s in waitSet %t with %d pending", s.names[i], inSet, ts.pending.len())
			}
			if c := min(ts.effMax(s.capacity), ts.demand()); !bit(s.touched, i) && ts.shareCap != c {
				fail("untouched tenant %s has shareCap %d, min(effMax, demand) %d", s.names[i], ts.shareCap, c)
			}
			if !touched && math.Float64bits(ts.fairShare) != math.Float64bits(fresh.tenants[i].fairShare) {
				fail("tenant %s has fair share %v, a fresh water-fill %v", s.names[i], ts.fairShare, fresh.tenants[i].fairShare)
			}
			waits := ts.pending.len() > 0
			window(i, "min", waits && ts.running < ts.minTarget(s.capacity),
				ts.cfg.MinSharePreemptTimeout, ts.starvedMinSince, ts.minCheckEv)
			window(i, "share", waits && float64(ts.running) < ts.fairShare-1e-9,
				ts.cfg.SharePreemptTimeout, ts.starvedShareSince, ts.shareCheckEv)
		}
		if waiting != s.waiting || open != s.open {
			fail("waiting/open = %d/%d, recount %d/%d", s.waiting, s.open, waiting, open)
		}
	}
	return kernelCount{len(s.tenants), s.passes, s.fills, s.visits}
}

// TestKernelStateNoscan holds the kernel's per-run state to element types
// the collector never scans: the engine's heap and position slices and
// the scheduler's job, task, attempt and index slices. A field that
// brings a pointer, string, slice, map, interface or func back into one
// of them fails here rather than in a profile.
func TestKernelStateNoscan(t *testing.T) {
	sched := reflect.TypeOf(scheduler{})
	engine, _ := sched.FieldByName("engine")
	for _, c := range []struct {
		owner  reflect.Type
		fields []string
	}{
		{engine.Type, []string{"heap", "pos"}},
		{sched, []string{"jobs", "tasks", "runs", "order", "remaining", "unlocked", "waitSet", "touched", "fair", "victims", "certLog"}},
	} {
		for _, name := range c.fields {
			f, ok := c.owner.FieldByName(name)
			if !ok || f.Type.Kind() != reflect.Slice {
				t.Fatalf("%s.%s: no such slice field", c.owner, name)
			}
			if p := scanned(f.Type.Elem(), f.Type.Elem().String()); p != "" {
				t.Errorf("%s.%s: the collector scans %s", c.owner, name, p)
			}
		}
	}
	// The walk itself: a tenant keeps its deque and ranked buffers.
	if scanned(reflect.TypeOf(tenantState{}), "tenantState") == "" {
		t.Error("scanned finds no slice in tenantState")
	}
}

// scanned names the first part of a value of type t that holds a
// pointer the collector follows, or returns "".
func scanned(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := scanned(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Array:
		return scanned(t.Elem(), path+"[i]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
		return fmt.Sprintf("%s (%s)", path, t.Kind())
	}
	return ""
}

// fewestAllocs returns the fewest heap allocations fn made over runs
// calls. The runtime's own allocations (a thread started after a
// stop-the-world, a timer) land in a call's count now and then, and only
// ever add to it.
func fewestAllocs(runs int, fn func()) uint64 {
	fewest := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range runs {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// kernelSink keeps the benchmarked runs from being optimised away.
var kernelSink *Schedule

// BenchmarkSchedulerKernel prices one dispatched event of the scheduler
// kernel as the tenant count grows, with capacity above total demand (the
// what-if common case: nothing waits) and at a quarter of it (every
// event finds a queue), and reports a run's starvation passes, the
// water-fills they ran and the tenants they visited. One pooled Sim, as
// the what-if workers run it. The detach row is the above run plus Detach: what cluster.Run pays to
// hand a caller its own schedule. The digest row is the run plus
// AppendDigest into a warmed buffer: what a what-if pair pays before its
// schedule-tier lookup. Each row fails if a warmed run allocates more
// than the kernel's steady state: the *Schedule and Trace.Validate's map,
// which needs more allocations for the 1000-tenant trace, plus Detach's
// two record copies; the digest adds none.
func BenchmarkSchedulerKernel(b *testing.B) {
	// Every tenant submits a few jobs, so the work grows with the tenant
	// count; ns/event is what compares across rows.
	for _, pop := range []struct {
		n       int
		scale   float64
		horizon time.Duration
		allocs  float64 // per warmed RunInto
	}{{2, 1, 4 * time.Hour, 4}, {100, 0.3, time.Hour, 4}, {1000, 0.1, 2 * time.Hour, 10}} {
		tr := kernelTrace(b, manyTenants(pop.n, pop.scale), pop.horizon, 21)
		demand := peakDemand(b, tr)
		for _, load := range []struct {
			name     string
			capacity int
			detach   bool
		}{
			{"capacity=above", demand + 1, false}, {"capacity=quarter", demand/4 + 1, false},
			{"detach", demand + 1, true},
		} {
			cfg := kernelConfig(tr, load.capacity, func(i int) TenantConfig {
				return TenantConfig{Weight: 1 + float64(i%3), MinShare: 1, MinSharePreemptTimeout: time.Minute, SharePreemptTimeout: 5 * time.Minute}
			})
			b.Run(fmt.Sprintf("tenants=%d/%s", pop.n, load.name), func(b *testing.B) {
				b.ReportAllocs()
				// Warm the Sim once, untimed: a what-if worker's Sim has
				// run the trace before, so allocs/op is the steady state.
				sm := NewSim()
				if _, err := sm.RunInto(tr, cfg, Options{}); err != nil {
					b.Fatal(err)
				}
				run := func() {
					s, err := sm.RunInto(tr, cfg, Options{})
					if err != nil {
						b.Fatal(err)
					}
					if load.detach {
						sm.Detach()
					}
					kernelSink = s
				}
				events := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
					events += sm.s.engine.Fired()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
				b.ReportMetric(float64(events)/float64(b.N), "events/op")
				b.ReportMetric(float64(sm.s.passes), "passes/op")
				b.ReportMetric(float64(sm.s.fills), "fills/op")
				b.ReportMetric(float64(sm.s.visits), "visits/op")
				ceiling := pop.allocs
				if load.detach {
					ceiling += 2
				}
				if allocs := fewestAllocs(3, run); float64(allocs) > ceiling {
					b.Fatalf("a warmed run allocates %d times, ceiling %.0f", allocs, ceiling)
				}
			})
		}
	}
}

// peakDemand is the trace's peak concurrent container demand when nothing
// ever waits: the maximum of the unconstrained usage timeline.
func peakDemand(tb testing.TB, tr *workload.Trace) int {
	tb.Helper()
	s, err := Predict(tr, Config{TotalContainers: tr.TaskCount() + 1})
	if err != nil {
		tb.Fatal(err)
	}
	peak, cur := 0, 0
	for _, e := range s.Events() {
		cur += e.Delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
