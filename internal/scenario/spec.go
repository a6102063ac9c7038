// Package scenario is the declarative stress-scenario layer on top of the
// cluster emulator (internal/cluster), the control loop (internal/core),
// and the What-if Model (internal/whatif). A Spec — loadable from JSON —
// composes tenants (statistical profile presets), arrival processes
// (steady, diurnal, periodic burst, flash crowd, tenant arrival and
// departure), SLO templates, mid-run capacity changes, and a controller
// on/off toggle. Run drives the whole thing deterministically (seeded,
// bit-reproducible for any what-if parallelism) and emits a canonical
// Report with stable serialization, which the golden-file regression suite
// in this package locks down.
//
// The paper's robustness claim (§8.2: SLOs hold under bursty, diurnal,
// adversarial multi-tenant load) only means something over a broad,
// repeatable scenario matrix; this package is that matrix's substrate.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

// Spec declaratively describes one multi-tenant stress scenario.
type Spec struct {
	// Name identifies the scenario; reports carry it.
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Seed drives every random stream in the scenario. All derived seeds
	// (trace, noise, optimizer) are fixed functions of it, so one number
	// reproduces the whole run.
	Seed int64 `json:"seed"`
	// Capacity is the cluster's container count at the start of the run.
	Capacity int `json:"capacity"`
	// IntervalMinutes is the control interval L.
	IntervalMinutes float64 `json:"interval_minutes"`
	// Iterations is how many control intervals the run covers.
	Iterations int `json:"iterations"`
	// Replay selects the workload protocol. True replays one generated
	// interval-length trace every iteration with fresh noise — the
	// §8.2.1/§8.2.2 protocol, where QS changes are attributable to
	// configuration changes. False generates one long trace over the whole
	// run and plays consecutive windows — the §8.2.3 drift protocol, which
	// time-based effects (diurnal cycles, flash crowds, tenant arrival and
	// departure, bursts) require.
	Replay bool `json:"replay,omitempty"`
	// Noise, when non-nil, runs the emulation with production disturbances.
	// An empty object selects the §8.1 default noise model; fields override
	// it individually. Nil runs deterministically.
	Noise *NoiseSpec `json:"noise,omitempty"`
	// Tenants are the workload sources; at least one is required.
	Tenants []TenantSpec `json:"tenants"`
	// SLOs fix the QS vector, in order; at least one is required.
	SLOs []SLOSpec `json:"slos"`
	// Initial selects the RM configuration the run starts from.
	Initial InitialSpec `json:"initial"`
	// CapacityChanges shrink or grow the emulated cluster mid-run (node
	// failures, fleet expansion). Each change takes effect at its iteration
	// and persists. The controller's what-if model keeps assuming the
	// original capacity — exactly the model/reality mismatch such events
	// cause in production.
	CapacityChanges []CapacityChange `json:"capacity_changes,omitempty"`
	// Controller configures the control loop.
	Controller ControllerSpec `json:"controller"`
}

// maxTenantCount bounds one group's replication factor: it keeps a typo'd
// spec from materializing millions of tenants, and keeps every replica
// suffix within the fixed three-digit padding so expanded names sort in
// replica order.
const maxTenantCount = 1000

// TenantSpec declares one tenant as a named statistical profile preset plus
// arrival-process and lifecycle modifiers. With Count > 1 it declares a
// whole *group* of tenants sharing the profile — the stress tier's way of
// describing hundreds of tenants in a few lines.
type TenantSpec struct {
	// Name is the tenant (queue) name — or, with Count > 1, the group
	// prefix.
	Name string `json:"name"`
	// Count replicates this spec into Count tenants named "<name>-000",
	// "<name>-001", … (zero-padded to three digits). Each replica draws an
	// independent workload stream: the generator seeds per-tenant
	// randomness by tenant name, so replicas share the statistical profile
	// but not the arrivals. 0 and 1 both mean a single tenant named Name
	// verbatim. Per-tenant SLOs and initial-config entries refer to
	// replicas by their expanded names.
	Count int `json:"count,omitempty"`
	// Profile selects the statistical workload preset: "deadline-driven",
	// "best-effort", "facebook", "cloudera", or one of the Company ABC
	// tenants "abc-bi", "abc-dev", "abc-app", "abc-str", "abc-mv",
	// "abc-etl" (which carry their Table 1 rate patterns).
	Profile string `json:"profile"`
	// Scale multiplies the preset's arrival rate; 0 means 1.
	Scale float64 `json:"scale,omitempty"`
	// Deadline attaches (or overrides) deadline generation.
	Deadline *DeadlineSpec `json:"deadline,omitempty"`
	// Arrival replaces the preset's arrival-rate modulation with the
	// product of the listed processes. Empty keeps the preset's own.
	Arrival []ArrivalSpec `json:"arrival,omitempty"`
	// ArriveAfterHours silences the tenant before this run time — a tenant
	// onboarding mid-run. Zero means present from the start.
	ArriveAfterHours float64 `json:"arrive_after_hours,omitempty"`
	// DepartAfterHours silences the tenant from this run time on — a tenant
	// leaving mid-run. Zero means the tenant never departs.
	DepartAfterHours float64 `json:"depart_after_hours,omitempty"`
	// Grow scales the tenant's data size by this factor (§7.1's synthetic
	// "growth in data size"); 0 means unchanged.
	Grow float64 `json:"grow,omitempty"`
}

// DeadlineSpec attaches deadlines to a tenant's jobs: a job with ideal
// duration d gets deadline submit + factor·d, factor uniform in [Lo, Hi].
type DeadlineSpec struct {
	FactorLo float64 `json:"factor_lo"`
	FactorHi float64 `json:"factor_hi"`
	// Parallelism is the container count assumed when estimating the ideal
	// duration; 0 means the generator default (10).
	Parallelism int `json:"parallelism,omitempty"`
}

// ArrivalSpec is one arrival-rate modulation process. Kinds:
//
//	steady      — constant rate (the identity; useful to strip a preset's
//	              built-in pattern)
//	diurnal     — smooth day/night cycle with a weekend dip (night and
//	              weekend are multipliers in [0,1])
//	burst       — periodic bursts: boost inside a width-minutes window
//	              every period, floor outside
//	flash-crowd — a one-off rate spike: multiplier during
//	              [at, at+duration), 1 elsewhere
type ArrivalSpec struct {
	Kind string `json:"kind"`
	// Diurnal parameters.
	Night   float64 `json:"night,omitempty"`
	Weekend float64 `json:"weekend,omitempty"`
	// Burst parameters.
	PeriodMinutes float64 `json:"period_minutes,omitempty"`
	WidthMinutes  float64 `json:"width_minutes,omitempty"`
	Floor         float64 `json:"floor,omitempty"`
	Boost         float64 `json:"boost,omitempty"`
	// Flash-crowd parameters.
	AtHours       float64 `json:"at_hours,omitempty"`
	DurationHours float64 `json:"duration_hours,omitempty"`
	Multiplier    float64 `json:"multiplier,omitempty"`
}

// SLOSpec is the JSON form of one QS template (§5.2).
type SLOSpec struct {
	// Queue is the tenant the SLO covers; empty means cluster-wide (valid
	// for utilization and throughput only).
	Queue string `json:"queue,omitempty"`
	// Metric is one of "avg_response_time", "deadline_violations",
	// "utilization", "throughput", "fairness".
	Metric string `json:"metric"`
	// Slack is QS_DL's tolerance γ.
	Slack float64 `json:"slack,omitempty"`
	// DesiredShare is QS_FAIR's target usage fraction.
	DesiredShare float64 `json:"desired_share,omitempty"`
	// EffectiveOnly restricts QS_UTIL to finished attempts.
	EffectiveOnly bool `json:"effective_only,omitempty"`
	// TaskKind restricts QS_UTIL to "map" or "reduce" containers.
	TaskKind string `json:"task_kind,omitempty"`
	// Priority multiplies the QS value; 0 means 1.
	Priority float64 `json:"priority,omitempty"`
	// Target, when present, is the constraint bound r_i; absent means
	// best-effort (the loop ratchets the observed value).
	Target *float64 `json:"target,omitempty"`
}

// InitialSpec selects the RM configuration the run starts from: a named
// preset, explicit per-tenant parameters, or (both empty) equal weights
// with no limits and preemption disabled.
type InitialSpec struct {
	// Preset is "expert-two-tenant", "expert-abc", "hair-trigger", or "".
	Preset string `json:"preset,omitempty"`
	// Tenants gives explicit per-tenant parameters; entries override the
	// preset's (or the equal-weight default) per tenant.
	Tenants map[string]TenantConfigSpec `json:"tenants,omitempty"`
}

// TenantConfigSpec is the JSON form of one tenant's RM parameters, with
// timeouts in seconds for readability.
type TenantConfigSpec struct {
	Weight                 float64 `json:"weight"`
	MinShare               int     `json:"min_share,omitempty"`
	MaxShare               int     `json:"max_share,omitempty"`
	SharePreemptSeconds    float64 `json:"share_preempt_seconds,omitempty"`
	MinSharePreemptSeconds float64 `json:"min_share_preempt_seconds,omitempty"`
}

// CapacityChange resizes the emulated cluster from one iteration onward.
type CapacityChange struct {
	AtIteration int `json:"at_iteration"`
	Capacity    int `json:"capacity"`
}

// ControllerSpec configures the control loop.
type ControllerSpec struct {
	// Disabled runs the whole scenario under the initial configuration —
	// the static-expert baseline every tuned run is compared against.
	Disabled bool `json:"disabled,omitempty"`
	// Candidates per loop iteration; 0 means 5 (§8.2).
	Candidates int `json:"candidates,omitempty"`
	// Revert selects the regression guard: "on-worse" (default),
	// "non-dominance", or "off".
	Revert string `json:"revert,omitempty"`
	// MaxStep is PALD's trust-region radius; 0 means 0.2.
	MaxStep float64 `json:"max_step,omitempty"`
	// WhatIfSamples averages this many workload draws per what-if
	// evaluation in windowed (non-replay) mode; 0 means 1.
	WhatIfSamples int `json:"whatif_samples,omitempty"`
}

// NoiseSpec overrides the default §8.1 noise model field by field; nil
// pointers keep the default (sigma 0.25, 2% task failures, 1% job kills).
type NoiseSpec struct {
	DurationSigma *float64 `json:"duration_sigma,omitempty"`
	FailureProb   *float64 `json:"failure_prob,omitempty"`
	JobKillProb   *float64 `json:"job_kill_prob,omitempty"`
}

// Interval returns the control interval as a duration.
func (s *Spec) Interval() time.Duration {
	return time.Duration(s.IntervalMinutes * float64(time.Minute))
}

// Horizon returns the total virtual time the scenario covers.
func (s *Spec) Horizon() time.Duration {
	return time.Duration(s.Iterations) * s.Interval()
}

// ExpandedTenants returns the effective tenant list with every Count > 1
// group materialized into its named replicas, in declaration order.
func (s *Spec) ExpandedTenants() []TenantSpec {
	out := make([]TenantSpec, 0, len(s.Tenants))
	for i := range s.Tenants {
		t := s.Tenants[i]
		if t.Count <= 1 {
			t.Count = 0
			out = append(out, t)
			continue
		}
		for r := 0; r < t.Count; r++ {
			replica := t
			replica.Name = fmt.Sprintf("%s-%03d", t.Name, r)
			replica.Count = 0
			out = append(out, replica)
		}
	}
	return out
}

// TenantNames returns the scenario's effective tenant names (groups
// expanded), sorted.
func (s *Spec) TenantNames() []string {
	expanded := s.ExpandedTenants()
	out := make([]string, 0, len(expanded))
	for i := range expanded {
		out = append(out, expanded[i].Name)
	}
	sort.Strings(out)
	return out
}

// profilePresets maps preset names to constructors. The ABC presets pick
// one tenant out of the Table 1 mix and rename it.
func profilePreset(preset, name string, scale float64) (workload.TenantProfile, error) {
	switch preset {
	case "deadline-driven":
		return workload.DeadlineDriven(name, scale), nil
	case "best-effort":
		return workload.BestEffort(name, scale), nil
	case "facebook":
		return workload.Facebook(name, scale), nil
	case "cloudera":
		return workload.Cloudera(name, scale), nil
	case "abc-bi", "abc-dev", "abc-app", "abc-str", "abc-mv", "abc-etl":
		want := map[string]string{
			"abc-bi": "BI", "abc-dev": "DEV", "abc-app": "APP",
			"abc-str": "STR", "abc-mv": "MV", "abc-etl": "ETL",
		}[preset]
		for _, p := range workload.CompanyABC(scale) {
			if p.Name == want {
				p.Name = name
				return p, nil
			}
		}
		return workload.TenantProfile{}, fmt.Errorf("scenario: ABC preset %q not found", preset)
	}
	return workload.TenantProfile{}, fmt.Errorf("scenario: unknown tenant profile %q", preset)
}

// Materialize builds the tenant's statistical profile, including arrival
// modulation and the arrive/depart lifecycle window.
func (t *TenantSpec) Materialize() (workload.TenantProfile, error) {
	scale := t.Scale
	if scale <= 0 {
		scale = 1
	}
	p, err := profilePreset(t.Profile, t.Name, scale)
	if err != nil {
		return workload.TenantProfile{}, err
	}
	if t.Deadline != nil {
		p.DeadlineFactor = workload.Uniform{Lo: t.Deadline.FactorLo, Hi: t.Deadline.FactorHi}
		p.DeadlineParallelism = t.Deadline.Parallelism
	}
	var mods []workload.Modulator
	if len(t.Arrival) > 0 {
		for i := range t.Arrival {
			m, err := t.Arrival[i].modulator()
			if err != nil {
				return workload.TenantProfile{}, fmt.Errorf("scenario: tenant %s: %w", t.Name, err)
			}
			mods = append(mods, m)
		}
	} else if p.Rate != nil {
		mods = append(mods, p.Rate)
	}
	if t.ArriveAfterHours > 0 || t.DepartAfterHours > 0 {
		arrive := time.Duration(t.ArriveAfterHours * float64(time.Hour))
		depart := time.Duration(t.DepartAfterHours * float64(time.Hour))
		mods = append(mods, lifecycleWindow(arrive, depart))
	}
	switch len(mods) {
	case 0:
		p.Rate = nil
	case 1:
		p.Rate = mods[0]
	default:
		p.Rate = productModulator(mods)
	}
	if t.Grow > 0 && t.Grow != 1 {
		p = p.Grow(t.Grow)
	}
	return p, nil
}

func (a *ArrivalSpec) modulator() (workload.Modulator, error) {
	switch a.Kind {
	case "steady":
		return workload.Flat, nil
	case "diurnal":
		if a.Night < 0 || a.Night > 1 || a.Weekend < 0 || a.Weekend > 1 {
			return nil, fmt.Errorf("diurnal night/weekend multipliers %g/%g outside [0,1]", a.Night, a.Weekend)
		}
		return workload.DiurnalWeekly(a.Night, a.Weekend), nil
	case "burst":
		// Omitted parameters would silently turn the declared burst pattern
		// into a zero rate; a spec mistake must fail loudly instead.
		if a.PeriodMinutes <= 0 || a.WidthMinutes <= 0 {
			return nil, fmt.Errorf("burst needs positive period_minutes and width_minutes, got %g/%g", a.PeriodMinutes, a.WidthMinutes)
		}
		if a.Boost <= 0 || a.Floor < 0 {
			return nil, fmt.Errorf("burst needs positive boost and non-negative floor, got %g/%g", a.Boost, a.Floor)
		}
		return workload.Periodic(
			time.Duration(a.PeriodMinutes*float64(time.Minute)),
			time.Duration(a.WidthMinutes*float64(time.Minute)),
			a.Floor, a.Boost), nil
	case "flash-crowd":
		if a.DurationHours <= 0 || a.Multiplier <= 0 {
			return nil, fmt.Errorf("flash-crowd needs positive duration_hours and multiplier, got %g/%g", a.DurationHours, a.Multiplier)
		}
		at := time.Duration(a.AtHours * float64(time.Hour))
		dur := time.Duration(a.DurationHours * float64(time.Hour))
		mult := a.Multiplier
		return func(t time.Duration) float64 {
			if t >= at && t < at+dur {
				return mult
			}
			return 1
		}, nil
	}
	return nil, fmt.Errorf("unknown arrival kind %q", a.Kind)
}

// lifecycleWindow silences a tenant outside [arrive, depart); depart 0
// means never.
func lifecycleWindow(arrive, depart time.Duration) workload.Modulator {
	return func(t time.Duration) float64 {
		if t < arrive {
			return 0
		}
		if depart > 0 && t >= depart {
			return 0
		}
		return 1
	}
}

func productModulator(mods []workload.Modulator) workload.Modulator {
	return func(t time.Duration) float64 {
		m := 1.0
		for _, f := range mods {
			m *= f(t)
		}
		return m
	}
}

// Template converts the SLO spec to a qs.Template.
func (s *SLOSpec) Template() (qs.Template, error) {
	t := qs.Template{
		Queue:         s.Queue,
		Metric:        qs.Kind(s.Metric),
		Slack:         s.Slack,
		DesiredShare:  s.DesiredShare,
		EffectiveOnly: s.EffectiveOnly,
		Priority:      s.Priority,
	}
	switch s.TaskKind {
	case "":
	case "map":
		k := workload.Map
		t.TaskKind = &k
	case "reduce":
		k := workload.Reduce
		t.TaskKind = &k
	default:
		return qs.Template{}, fmt.Errorf("scenario: unknown task kind %q", s.TaskKind)
	}
	if s.Target != nil {
		t = t.WithTarget(*s.Target)
	}
	if err := t.Validate(); err != nil {
		return qs.Template{}, err
	}
	return t, nil
}

// Config materializes the initial RM configuration for the given capacity
// and tenant set.
func (in *InitialSpec) Config(capacity int, tenants []string) (cluster.Config, error) {
	var cfg cluster.Config
	switch in.Preset {
	case "":
		cfg = cluster.Config{TotalContainers: capacity, Tenants: map[string]cluster.TenantConfig{}}
		for _, name := range tenants {
			cfg.Tenants[name] = cluster.TenantConfig{Weight: 1}
		}
	case "expert-two-tenant":
		cfg = ExpertTwoTenantConfig(capacity)
	case "expert-abc":
		cfg = ExpertABCConfig(capacity)
	case "hair-trigger":
		cfg = HairTriggerConfig(capacity)
	default:
		return cluster.Config{}, fmt.Errorf("scenario: unknown initial-config preset %q", in.Preset)
	}
	names := make([]string, 0, len(in.Tenants))
	for name := range in.Tenants {
		names = append(names, name)
	}
	sort.Strings(names) // the first bad tenant reported must not vary across runs
	for _, name := range names {
		tc := in.Tenants[name]
		// Past time.Duration's range the conversion below is platform-defined.
		for _, f := range []field{{"share_preempt_seconds", tc.SharePreemptSeconds},
			{"min_share_preempt_seconds", tc.MinSharePreemptSeconds}} {
			if f.value*float64(time.Second) >= math.MaxInt64 {
				return cluster.Config{}, fmt.Errorf("scenario: tenant %s %s %g overflows the preemption timeout", name, f.name, f.value)
			}
		}
		cfg.Tenants[name] = cluster.TenantConfig{
			Weight:                 tc.Weight,
			MinShare:               tc.MinShare,
			MaxShare:               tc.MaxShare,
			SharePreemptTimeout:    time.Duration(tc.SharePreemptSeconds * float64(time.Second)),
			MinSharePreemptTimeout: time.Duration(tc.MinSharePreemptSeconds * float64(time.Second)),
		}
	}
	// Every configured tenant must exist in the scenario: a preset whose
	// queue names do not match the declared tenants would otherwise be
	// silently ignored at runtime (cfg.Tenant falls back to the default),
	// and the run would measure the equal-weight default while claiming an
	// expert baseline.
	known := make(map[string]bool, len(tenants))
	for _, name := range tenants {
		known[name] = true
	}
	// Report the lexically smallest unknown tenant: map iteration order
	// is random, and a spec error message must not vary across runs.
	unknown := ""
	for name := range cfg.Tenants {
		if !known[name] && (unknown == "" || name < unknown) {
			unknown = name
		}
	}
	if unknown != "" {
		return cluster.Config{}, fmt.Errorf("scenario: initial config names unknown tenant %q (scenario tenants: %s)",
			unknown, strings.Join(tenants, ", "))
	}
	return cfg, cfg.Validate()
}

// Validate checks the spec's structural invariants.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec with empty name")
	}
	if s.Capacity <= 0 {
		return fmt.Errorf("scenario %s: non-positive capacity %d", s.Name, s.Capacity)
	}
	if s.IntervalMinutes <= 0 {
		return fmt.Errorf("scenario %s: non-positive interval %g min", s.Name, s.IntervalMinutes)
	}
	if s.Iterations <= 0 {
		return fmt.Errorf("scenario %s: non-positive iterations %d", s.Name, s.Iterations)
	}
	// Past time.Duration's range, Interval and Horizon wrap or truncate.
	if s.IntervalMinutes*float64(time.Minute) >= math.MaxInt64 || s.Interval() > math.MaxInt64/time.Duration(s.Iterations) {
		return fmt.Errorf("scenario %s: interval_minutes %g × iterations %d overflows the horizon",
			s.Name, s.IntervalMinutes, s.Iterations)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("scenario %s: no tenants", s.Name)
	}
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if t.Name == "" {
			return fmt.Errorf("scenario %s: tenant %d has empty name", s.Name, i)
		}
		if t.Count < 0 {
			return fmt.Errorf("scenario %s: tenant %s has negative count %d", s.Name, t.Name, t.Count)
		}
		if t.Count > maxTenantCount {
			return fmt.Errorf("scenario %s: tenant %s count %d exceeds the %d-replica cap",
				s.Name, t.Name, t.Count, maxTenantCount)
		}
		fields := []field{{"scale", t.Scale}, {"grow", t.Grow},
			{"arrive_after_hours", t.ArriveAfterHours}, {"depart_after_hours", t.DepartAfterHours}}
		if d := t.Deadline; d != nil {
			if d.FactorHi < d.FactorLo {
				return fmt.Errorf("scenario %s: tenant %s deadline factor_hi %g below factor_lo %g",
					s.Name, t.Name, d.FactorHi, d.FactorLo)
			}
			fields = append(fields, field{"deadline factor_lo", d.FactorLo}, field{"deadline parallelism", float64(d.Parallelism)})
		}
		if err := negative(fmt.Sprintf("scenario %s: tenant %s", s.Name, t.Name), fields...); err != nil {
			return err
		}
	}
	// Structural checks run over the expanded list, so replica-name
	// collisions (group "a" with count 2 versus an explicit tenant
	// "a-001") fail loudly.
	expanded := s.ExpandedTenants()
	seen := map[string]bool{}
	for i := range expanded {
		t := &expanded[i]
		if seen[t.Name] {
			return fmt.Errorf("scenario %s: duplicate tenant %s", s.Name, t.Name)
		}
		seen[t.Name] = true
		if _, err := t.Materialize(); err != nil {
			return err
		}
		if t.DepartAfterHours > 0 && t.DepartAfterHours <= t.ArriveAfterHours {
			return fmt.Errorf("scenario %s: tenant %s departs at %gh before arriving at %gh",
				s.Name, t.Name, t.DepartAfterHours, t.ArriveAfterHours)
		}
		// Replay mode regenerates a single interval-length trace and plays
		// it every iteration, so run-time-anchored effects (tenant churn,
		// one-off flash crowds) can never occur — reject them instead of
		// silently dropping the declared behaviour.
		if s.Replay {
			if t.ArriveAfterHours > 0 || t.DepartAfterHours > 0 {
				return fmt.Errorf("scenario %s: tenant %s uses arrive/depart hours, which need windowed mode (remove \"replay\": true)",
					s.Name, t.Name)
			}
			for _, a := range t.Arrival {
				if a.Kind == "flash-crowd" {
					return fmt.Errorf("scenario %s: tenant %s uses a flash-crowd arrival, which needs windowed mode (remove \"replay\": true)",
						s.Name, t.Name)
				}
			}
		}
	}
	if len(s.SLOs) == 0 {
		return fmt.Errorf("scenario %s: no SLOs", s.Name)
	}
	for i := range s.SLOs {
		tpl, err := s.SLOs[i].Template()
		if err != nil {
			return err
		}
		if tpl.Queue != "" && !seen[tpl.Queue] {
			return fmt.Errorf("scenario %s: SLO %d names unknown tenant %q", s.Name, i, tpl.Queue)
		}
	}
	if _, err := s.Initial.Config(s.Capacity, s.TenantNames()); err != nil {
		return err
	}
	prev := -1
	for _, cc := range s.CapacityChanges {
		if cc.AtIteration < 0 || cc.AtIteration >= s.Iterations {
			return fmt.Errorf("scenario %s: capacity change at iteration %d outside [0, %d)",
				s.Name, cc.AtIteration, s.Iterations)
		}
		if cc.AtIteration <= prev {
			return fmt.Errorf("scenario %s: capacity changes not strictly ascending", s.Name)
		}
		prev = cc.AtIteration
		if cc.Capacity <= 0 {
			return fmt.Errorf("scenario %s: capacity change to %d containers", s.Name, cc.Capacity)
		}
	}
	switch s.Controller.Revert {
	case "", "on-worse", "non-dominance", "off":
	default:
		return fmt.Errorf("scenario %s: unknown revert policy %q", s.Name, s.Controller.Revert)
	}
	c := s.Controller
	if err := negative("scenario "+s.Name, field{"controller candidates", float64(c.Candidates)},
		field{"controller max_step", c.MaxStep}, field{"controller whatif_samples", float64(c.WhatIfSamples)}); err != nil {
		return err
	}
	if n := s.Noise; n != nil {
		if n.DurationSigma != nil && *n.DurationSigma < 0 {
			return fmt.Errorf("scenario %s: negative noise duration_sigma %g", s.Name, *n.DurationSigma)
		}
		for _, f := range []struct {
			name string
			p    *float64
		}{{"failure_prob", n.FailureProb}, {"job_kill_prob", n.JobKillProb}} {
			if f.p != nil && (*f.p < 0 || *f.p > 1) {
				return fmt.Errorf("scenario %s: noise %s %g outside [0, 1]", s.Name, f.name, *f.p)
			}
		}
	}
	return nil
}

// field is one numeric spec field, named as in the JSON, for a range check.
type field struct {
	name  string
	value float64
}

// negative returns an error naming the first negative field, or nil. Zero
// selects each documented default; a negative value must not silently
// select some other one downstream.
func negative(scope string, fields ...field) error {
	for _, f := range fields {
		if f.value < 0 {
			return fmt.Errorf("%s: negative %s %g", scope, f.name, f.value)
		}
	}
	return nil
}

// Load parses and validates a spec from r. Unknown fields are rejected so
// typos in scenario files fail loudly instead of silently changing the run.
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads and validates a spec from path.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return Load(f)
}
