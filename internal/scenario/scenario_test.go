package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

func validSpec() *Spec {
	target := 0.0
	return &Spec{
		Name:            "unit",
		Seed:            1,
		Capacity:        16,
		IntervalMinutes: 15,
		Iterations:      2,
		Replay:          true,
		Tenants: []TenantSpec{
			{Name: "deadline", Profile: "cloudera", Scale: 0.8,
				Deadline: &DeadlineSpec{FactorLo: 1.2, FactorHi: 2, Parallelism: 8}},
			{Name: "besteffort", Profile: "facebook", Scale: 0.8},
		},
		SLOs: []SLOSpec{
			{Queue: "deadline", Metric: "deadline_violations", Slack: 0.25, Target: &target},
			{Queue: "besteffort", Metric: "avg_response_time"},
		},
		Initial:    InitialSpec{Preset: "expert-two-tenant"},
		Controller: ControllerSpec{Candidates: 3},
	}
}

func TestValidateRejectsBrokenSpecs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"empty name", func(s *Spec) { s.Name = "" }, "empty name"},
		{"zero capacity", func(s *Spec) { s.Capacity = 0 }, "capacity"},
		{"zero interval", func(s *Spec) { s.IntervalMinutes = 0 }, "interval"},
		{"interval under a nanosecond", func(s *Spec) { s.IntervalMinutes = 1e-12 }, "interval"},
		{"zero iterations", func(s *Spec) { s.Iterations = 0 }, "iterations"},
		{"no tenants", func(s *Spec) { s.Tenants = nil }, "no tenants"},
		{"duplicate tenant", func(s *Spec) { s.Tenants[1].Name = "deadline" }, "duplicate"},
		{"unknown profile", func(s *Spec) { s.Tenants[0].Profile = "nope" }, "unknown tenant profile"},
		{"no SLOs", func(s *Spec) { s.SLOs = nil }, "no SLOs"},
		{"SLO unknown tenant", func(s *Spec) { s.SLOs[0].Queue = "ghost" }, "unknown tenant"},
		{"bad metric", func(s *Spec) { s.SLOs[0].Metric = "latency" }, "unknown metric"},
		{"bad task kind", func(s *Spec) { s.SLOs[0].TaskKind = "shuffle" }, "task kind"},
		{"bad preset", func(s *Spec) { s.Initial.Preset = "wat" }, "preset"},
		{"initial unknown tenant", func(s *Spec) {
			s.Initial.Tenants = map[string]TenantConfigSpec{"ghost": {Weight: 1}}
		}, "unknown tenant"},
		{"depart before arrive", func(s *Spec) {
			s.Tenants[0].ArriveAfterHours = 3
			s.Tenants[0].DepartAfterHours = 2
		}, "departs"},
		{"capacity change out of range", func(s *Spec) {
			s.CapacityChanges = []CapacityChange{{AtIteration: 5, Capacity: 8}}
		}, "outside"},
		{"capacity changes unsorted", func(s *Spec) {
			s.CapacityChanges = []CapacityChange{{AtIteration: 1, Capacity: 8}, {AtIteration: 1, Capacity: 9}}
		}, "ascending"},
		{"bad revert", func(s *Spec) { s.Controller.Revert = "maybe" }, "revert"},
		{"replay with tenant churn", func(s *Spec) {
			s.Tenants[1].ArriveAfterHours = 1
		}, "windowed mode"},
		{"replay with flash crowd", func(s *Spec) {
			s.Tenants[1].Arrival = []ArrivalSpec{{Kind: "flash-crowd", AtHours: 0.1, DurationHours: 0.1, Multiplier: 2}}
		}, "windowed mode"},
		{"burst missing boost", func(s *Spec) {
			s.Tenants[1].Arrival = []ArrivalSpec{{Kind: "burst", PeriodMinutes: 60, WidthMinutes: 10}}
		}, "boost"},
		{"flash crowd missing multiplier", func(s *Spec) {
			s.Replay = false
			s.Tenants[1].Arrival = []ArrivalSpec{{Kind: "flash-crowd", AtHours: 1, DurationHours: 2}}
		}, "multiplier"},
		{"diurnal out of range", func(s *Spec) {
			s.Tenants[1].Arrival = []ArrivalSpec{{Kind: "diurnal", Night: 1.5}}
		}, "diurnal"},
		{"preset tenants mismatch", func(s *Spec) {
			s.Tenants[0].Name = "etl"
			s.SLOs[0].Queue = "etl"
		}, "unknown tenant"},
		{"negative max step", func(s *Spec) { s.Controller.MaxStep = -1 }, "max_step"},
		{"negative candidates", func(s *Spec) { s.Controller.Candidates = -2 }, "candidates"},
		{"negative whatif samples", func(s *Spec) { s.Controller.WhatIfSamples = -1 }, "whatif_samples"},
		{"negative duration sigma", func(s *Spec) {
			sigma := -0.1
			s.Noise = &NoiseSpec{DurationSigma: &sigma}
		}, "duration_sigma"},
		{"failure prob above one", func(s *Spec) {
			p := 1.5
			s.Noise = &NoiseSpec{FailureProb: &p}
		}, "failure_prob"},
		{"negative job kill prob", func(s *Spec) {
			p := -0.01
			s.Noise = &NoiseSpec{JobKillProb: &p}
		}, "job_kill_prob"},
		{"negative scale", func(s *Spec) { s.Tenants[0].Scale = -1 }, "scale"},
		{"negative grow", func(s *Spec) { s.Tenants[1].Grow = -2 }, "grow"},
		{"negative arrive hours", func(s *Spec) {
			s.Replay = false
			s.Tenants[1].ArriveAfterHours = -1
		}, "arrive_after_hours"},
		{"negative depart hours", func(s *Spec) {
			s.Replay = false
			s.Tenants[1].DepartAfterHours = -1
		}, "depart_after_hours"},
		{"deadline factors inverted", func(s *Spec) { s.Tenants[0].Deadline.FactorHi = 1 }, "factor_hi"},
		{"negative deadline factor", func(s *Spec) {
			s.Tenants[0].Deadline = &DeadlineSpec{FactorLo: -1, FactorHi: 2}
		}, "factor_lo"},
		{"negative deadline parallelism", func(s *Spec) { s.Tenants[0].Deadline.Parallelism = -4 }, "parallelism"},
		{"horizon overflows", func(s *Spec) { s.Iterations = 2000000000 }, "overflows"},
		{"interval overflows", func(s *Spec) { s.IntervalMinutes = 1e12 }, "interval_minutes"},
		{"share preempt overflows", func(s *Spec) {
			s.Initial.Tenants = map[string]TenantConfigSpec{"deadline": {Weight: 1, SharePreemptSeconds: 1e10}}
		}, "deadline share_preempt_seconds"},
		{"min share preempt overflows", func(s *Spec) {
			s.Initial.Tenants = map[string]TenantConfigSpec{"deadline": {Weight: 1, MinSharePreemptSeconds: 1e10}}
		}, "deadline min_share_preempt_seconds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// Build runs the same pass, so it refuses with the same error.
			if _, berr := Build(s, Options{}); berr == nil || berr.Error() != err.Error() {
				t.Fatalf("Build error %v, want Validate's %q", berr, err)
			}
		})
	}
}

// TestImprovementTable: Summary.Improvement's ~zero-first guard fires
// before the tail computation, and the tail window math holds for every
// small iteration count.
func TestImprovementTable(t *testing.T) {
	iters := func(vals ...float64) []IterationReport {
		out := make([]IterationReport, len(vals))
		for i, v := range vals {
			out[i] = IterationReport{Index: i, Observed: []float64{v}}
		}
		return out
	}
	cases := []struct {
		name       string
		iterations []IterationReport
		want       float64
	}{
		{"len0", iters(), 0},
		{"len1", iters(4), 0},                               // tail is the first observation again
		{"len1-zero-first", iters(0), 0},                    // guard, not 0/0
		{"len2", iters(4, 2), 0.5},                          // tail = last element
		{"len3", iters(4, 3, 2), 0.5},                       // tail index (3*3)/4 = 2
		{"len3-zero-first", iters(0, 5, 5), 0},              // guard fires before tail math
		{"len4", iters(4, 9, 9, 3), 0.25},                   // tail index 3
		{"len4-negative-first", iters(-4, 0, 0, -3), -0.25}, // |first| denominator
	}
	for _, tc := range cases {
		sum := summarize(&Report{Objectives: []string{"qs"}, Iterations: tc.iterations}, &Runtime{Spec: &Spec{}})
		got := 0.0
		if len(sum.Improvement) > 0 {
			got = sum.Improvement[0]
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Improvement = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"name":"x","sedd":1}`))
	if err == nil || !strings.Contains(err.Error(), "sedd") {
		t.Fatalf("Load did not reject unknown field: %v", err)
	}
}

func TestLifecycleWindow(t *testing.T) {
	m := lifecycleWindow(2*time.Hour, 5*time.Hour)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 0}, {2*time.Hour - 1, 0}, {2 * time.Hour, 1},
		{4 * time.Hour, 1}, {5 * time.Hour, 0}, {9 * time.Hour, 0},
	}
	for _, c := range cases {
		if got := m(c.at); got != c.want {
			t.Errorf("window(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	never := lifecycleWindow(time.Hour, 0)
	if never(100*time.Hour) != 1 {
		t.Error("depart 0 should mean the tenant never leaves")
	}
}

func TestCapacityAtStepFunction(t *testing.T) {
	e := &runEnv{changes: []CapacityChange{{AtIteration: 2, Capacity: 20}, {AtIteration: 5, Capacity: 30}}}
	want := []int{0, 0, 20, 20, 20, 30, 30}
	for i, w := range want {
		if got := e.capacityAt(i); got != w {
			t.Errorf("capacityAt(%d) = %d, want %d", i, got, w)
		}
	}
}

// TestRunEnvWindows checks the windowed observation protocol: tick i runs
// exactly the jobs of the trace's [i·interval, (i+1)·interval) window.
func TestRunEnvWindows(t *testing.T) {
	tr, err := workload.Generate([]workload.TenantProfile{workload.BestEffort("A", 2)},
		workload.GenerateOptions{Horizon: 3 * time.Hour, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	e := &runEnv{trace: tr}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	for tick := 0; tick < 2; tick++ {
		s, err := e.observe(cfg, time.Hour, tick)
		if err != nil {
			t.Fatal(err)
		}
		from := time.Duration(tick) * time.Hour
		want := tr.Window(from, from+time.Hour).Jobs
		if len(want) == 0 || len(s.Jobs) != len(want) {
			t.Fatalf("tick %d ran %d jobs, want the window's %d", tick, len(s.Jobs), len(want))
		}
		ids := map[string]bool{}
		for _, j := range want {
			ids[j.ID] = true
		}
		for _, j := range s.Jobs {
			if !ids[j.ID] {
				t.Fatalf("tick %d ran job %s from outside its window", tick, j.ID)
			}
		}
	}
}

func TestArrivalModulators(t *testing.T) {
	burst := ArrivalSpec{Kind: "burst", PeriodMinutes: 60, WidthMinutes: 10, Floor: 0.5, Boost: 3}
	m, err := burst.modulator()
	if err != nil {
		t.Fatal(err)
	}
	if got := m(5 * time.Minute); got != 3 {
		t.Errorf("in-burst rate %v, want 3", got)
	}
	if got := m(30 * time.Minute); got != 0.5 {
		t.Errorf("off-burst rate %v, want 0.5", got)
	}
	flash := ArrivalSpec{Kind: "flash-crowd", AtHours: 1, DurationHours: 2, Multiplier: 4}
	m, err = flash.modulator()
	if err != nil {
		t.Fatal(err)
	}
	if got := m(90 * time.Minute); got != 4 {
		t.Errorf("in-flash rate %v, want 4", got)
	}
	if got := m(4 * time.Hour); got != 1 {
		t.Errorf("post-flash rate %v, want 1", got)
	}
	if _, err := (&ArrivalSpec{Kind: "tsunami"}).modulator(); err == nil {
		t.Error("unknown arrival kind accepted")
	}
}

func TestSLOTemplateConversion(t *testing.T) {
	target := 0.1
	s := SLOSpec{Queue: "q", Metric: "deadline_violations", Slack: 0.25, Target: &target, Priority: 2}
	tpl, err := s.Template()
	if err != nil {
		t.Fatal(err)
	}
	if tpl.Metric != qs.DeadlineViolations || !tpl.HasTarget || tpl.Target != 0.1 || tpl.Priority != 2 {
		t.Fatalf("template = %+v", tpl)
	}
	util := SLOSpec{Metric: "utilization", TaskKind: "reduce", EffectiveOnly: true}
	tpl, err = util.Template()
	if err != nil {
		t.Fatal(err)
	}
	if tpl.TaskKind == nil || tpl.TaskKind.String() != "reduce" || !tpl.EffectiveOnly {
		t.Fatalf("util template = %+v", tpl)
	}
}

func TestInitialConfigPresetsAndOverrides(t *testing.T) {
	in := InitialSpec{
		Preset:  "expert-two-tenant",
		Tenants: map[string]TenantConfigSpec{"besteffort": {Weight: 2, MaxShare: 9}},
	}
	cfg, err := in.Config(20, []string{"besteffort", "deadline"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tenant("besteffort").Weight != 2 || cfg.Tenant("besteffort").MaxShare != 9 {
		t.Fatalf("override not applied: %+v", cfg.Tenant("besteffort"))
	}
	if cfg.Tenant("deadline").MinShare != 5 {
		t.Fatalf("preset not applied: %+v", cfg.Tenant("deadline"))
	}
	equal, err := (&InitialSpec{}).Config(10, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if equal.Tenant("a").Weight != 1 || equal.Tenant("b").Weight != 1 {
		t.Fatalf("default config not equal-weight: %+v", equal.Tenants)
	}
}

// TestControllerOffRunsStatic asserts a disabled controller neither
// switches nor reverts and observes every iteration under the initial
// configuration.
func TestControllerOffRunsStatic(t *testing.T) {
	spec := validSpec()
	spec.Controller.Disabled = true
	rep, err := Run(spec, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ControllerEnabled {
		t.Fatal("report claims controller enabled")
	}
	if rep.Summary.Switches != 0 || rep.Summary.Reverts != 0 {
		t.Fatalf("static run switched/reverted: %+v", rep.Summary)
	}
	if len(rep.Iterations) != spec.Iterations {
		t.Fatalf("iterations = %d, want %d", len(rep.Iterations), spec.Iterations)
	}
	if len(rep.Summary.FinalConfig) != 2 {
		t.Fatalf("final config entries = %d", len(rep.Summary.FinalConfig))
	}
}

// TestCapacityChangeShowsInReport asserts the mid-run capacity override
// reaches the emulated cluster and the report.
func TestCapacityChangeShowsInReport(t *testing.T) {
	spec := validSpec()
	spec.Controller.Disabled = true
	spec.Iterations = 3
	spec.CapacityChanges = []CapacityChange{{AtIteration: 1, Capacity: 8}}
	rep, err := Run(spec, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{16, 8, 8}
	for i, it := range rep.Iterations {
		if it.Capacity != want[i] {
			t.Errorf("iteration %d capacity = %d, want %d", i, it.Capacity, want[i])
		}
	}
}

// TestReplayAndWindowedShareSpecSurface asserts both protocols build and
// produce the declared number of objectives.
func TestReplayAndWindowedShareSpecSurface(t *testing.T) {
	for _, replay := range []bool{true, false} {
		spec := validSpec()
		spec.Replay = replay
		rep, err := Run(spec, Options{Parallelism: 2})
		if err != nil {
			t.Fatalf("replay=%v: %v", replay, err)
		}
		if len(rep.Objectives) != 2 {
			t.Fatalf("objectives = %v", rep.Objectives)
		}
		for _, it := range rep.Iterations {
			if len(it.Observed) != 2 {
				t.Fatalf("observed vector %v", it.Observed)
			}
		}
	}
}

// TestTenantLifecycleAffectsTrace asserts arrive/depart windows actually
// silence the tenant in the generated workload.
func TestTenantLifecycleAffectsTrace(t *testing.T) {
	spec := validSpec()
	spec.Replay = false
	spec.Iterations = 4
	spec.IntervalMinutes = 60
	spec.Tenants[1].ArriveAfterHours = 2
	rt, err := Build(spec, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range rt.Trace.ByTenant("besteffort") {
		if j.Submit < 2*time.Hour {
			t.Fatalf("job %s submitted at %v before the tenant arrived", j.ID, j.Submit)
		}
	}
	if len(rt.Trace.ByTenant("besteffort")) == 0 {
		t.Fatal("arriving tenant never submitted")
	}
}
