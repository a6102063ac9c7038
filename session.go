package tempo

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"tempo/internal/core"
	"tempo/internal/qs"
	"tempo/internal/query"
	"tempo/internal/scenario"
	"tempo/internal/whatif"
)

// The ad-hoc query layer (internal/query), re-exported so serving-layer
// callers depend on the root package only.
type (
	// QueryPlan is a validated, bounded JSON query over a session's
	// schedule events (see internal/query for the plan grammar).
	QueryPlan = query.Plan
	// QueryResult is a one-shot query's full, deterministically ordered
	// answer.
	QueryResult = query.Result
	// QueryRow is one result row.
	QueryRow = query.ResultRow
	// QueryRunner is a compiled standing query; the serving layer feeds it
	// ticks as they commit and streams the returned deltas.
	QueryRunner = query.Runner
)

// ParseQueryPlan decodes and validates a query plan from r. Unknown
// fields and out-of-bounds plans are rejected with errors naming the
// offending operator.
func ParseQueryPlan(r io.Reader) (*QueryPlan, error) { return query.ParsePlan(r) }

// Declarative scenarios (internal/scenario), re-exported so serving-layer
// callers depend on the root package only.
type (
	// Scenario declaratively describes one multi-tenant cluster: tenants
	// (statistical profile presets), arrival processes, SLO templates, the
	// initial RM configuration, mid-run capacity changes, and a controller
	// toggle. Load one from JSON with LoadScenario.
	Scenario = scenario.Spec
	// ScenarioOptions are runtime knobs that do not change a scenario's
	// trajectory (what-if parallelism, strategy overrides).
	ScenarioOptions = scenario.Options
	// ScenarioReport is the canonical, bit-reproducible record of a
	// scenario run.
	ScenarioReport = scenario.Report
	// ScenarioIteration is one control interval's slice of the report.
	ScenarioIteration = scenario.IterationReport
	// SessionSnapshot is the serializable checkpoint of a session's control
	// loop (tick cursor, iteration reports, controller state) — the
	// snapshot half of the durable state internal/store persists; the
	// other half is the per-tick observed schedules from the WAL.
	SessionSnapshot = scenario.Snapshot
	// SearchStats instruments one tick's candidate search (scored /
	// warm-started candidates, simulation counts, decision latency). The
	// serving layer aggregates them onto /metrics.
	SearchStats = core.SearchStats
)

// LoadScenario parses and validates a scenario spec from r. Unknown fields
// are rejected so typos fail loudly.
func LoadScenario(r io.Reader) (*Scenario, error) { return scenario.Load(r) }

// LoadScenarioFile reads and validates a scenario spec from path.
func LoadScenarioFile(path string) (*Scenario, error) { return scenario.LoadFile(path) }

// ErrSessionDone is returned by Session.Tick once the scenario's iteration
// budget is exhausted.
var ErrSessionDone = scenario.ErrDone

// Session is a live, tick-at-a-time handle on one tenant cluster's control
// loop — the unit the tempod serving layer hosts many of. Where
// scenario.Run drives a spec to completion in one call, a Session exposes
// the same machinery incrementally:
//
//   - Tick runs one control interval (observe → guard → propose → what-if
//     → apply, or observe-only when the spec disables the controller);
//     Observe and Apply are its two halves, for callers that log the
//     observation in between;
//   - QS answers windowed SLO queries over everything observed so far,
//     reusing the QS vector each tick recorded for a whole interval;
//   - WhatIf scores candidate RM configurations in the scenario's What-if
//     Model without touching the control loop's state;
//   - Report assembles the canonical run report.
//
// Determinism survives the slicing: after the final Tick, Report returns
// byte-for-byte the report scenario.Run produces for the same spec, for
// any interleaving of QS and WhatIf calls in between. All methods are safe
// for concurrent use; concurrent Ticks serialize, each advancing exactly
// one interval.
type Session struct {
	mu          sync.Mutex
	rt          *scenario.Runtime
	parallelism int
	// objectives names the QS vector's components; templates are fixed
	// for a session's life.
	objectives []string

	// model is the lazily built What-if Model serving WhatIf queries; it is
	// deliberately distinct from the controller's own model so probe
	// traffic cannot perturb (or contend with) the control loop. The two
	// share only the runtime's read-only sample traces.
	model *whatif.Model
}

// NewSession builds a live cluster from a validated scenario spec without
// running it: the workload is synthesized and the controller positioned at
// the initial configuration, ready for the first Tick.
func NewSession(spec *Scenario, opts ScenarioOptions) (*Session, error) {
	rt, err := scenario.Build(spec, opts)
	if err != nil {
		return nil, err
	}
	return newSession(rt, opts), nil
}

// newSession wraps a built or resumed runtime.
func newSession(rt *scenario.Runtime, opts ScenarioOptions) *Session {
	names := make([]string, len(rt.Templates))
	for i, t := range rt.Templates {
		names[i] = t.Name()
	}
	return &Session{rt: rt, parallelism: opts.Parallelism, objectives: names}
}

// ResumeSession rebuilds a session mid-scenario from its durable state:
// the spec, an optional snapshot, and the schedules observed before the
// crash (ticks 0..len(schedules), oldest first — WAL-replayed in
// recovery). A nil snap recovers from the schedules alone. The resumed
// session continues the original trajectory bit-for-bit: after the final
// Tick its Report is byte-identical to an uninterrupted run's.
func ResumeSession(spec *Scenario, opts ScenarioOptions, snap *SessionSnapshot, schedules []*Schedule) (*Session, error) {
	rt, err := scenario.Resume(spec, opts, snap, schedules)
	if err != nil {
		return nil, err
	}
	return newSession(rt, opts), nil
}

// Spec returns the scenario the session was built from.
func (s *Session) Spec() *Scenario { return s.rt.Spec }

// Interval returns the control interval L.
func (s *Session) Interval() time.Duration { return s.rt.Interval }

// Ticks returns how many control intervals have run.
func (s *Session) Ticks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.StepsDone()
}

// Done reports whether the scenario's iteration budget is exhausted.
func (s *Session) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.Done()
}

// Tick runs one control interval — Observe, then Apply — and returns its
// report slice. It returns ErrSessionDone after Spec.Iterations ticks.
func (s *Session) Tick() (ScenarioIteration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.Step()
}

// Observe simulates the next control interval and returns its index and
// schedule without changing the session; observing again yields an Equal
// schedule. The serving layer logs the schedule between Observe and Apply,
// so the session never holds a tick the log does not. It returns
// ErrSessionDone after Spec.Iterations ticks.
func (s *Session) Observe() (tick int, sched *Schedule, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.Observe()
}

// Apply advances the session one interval on the schedule observed for it
// and returns its report slice. Nothing else advances a session: Tick
// applies what it just observed, ResumeSession what the WAL recorded. tick
// must be the next interval — a stale observation is rejected.
func (s *Session) Apply(tick int, sched *Schedule) (ScenarioIteration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.Apply(tick, sched)
}

// Search returns tick i's candidate-search statistics if i is the tick
// last applied, else nil (also with the controller disabled). Diagnostic
// only — search stats never appear in reports, so they cannot perturb
// the determinism contract above.
func (s *Session) Search(i int) *SearchStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.Search(i)
}

// Current returns the RM configuration the next interval will run under.
func (s *Session) Current() ClusterConfig {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.Current()
}

// Report assembles the canonical report over the intervals run so far;
// after the final Tick it is byte-identical to scenario.Run's.
func (s *Session) Report() *ScenarioReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.Report()
}

// Snapshot captures the session's durable control-loop state at its
// current tick. Together with the observed schedules (the WAL's half) it
// is everything ResumeSession needs.
func (s *Session) Snapshot() (*SessionSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.Snapshot()
}

// ObservedSchedule returns the schedule tick i ran under, or nil when
// that tick has not run. Shared, not copied — treat as read-only; the
// serving layer encodes it into the WAL record for the tick.
func (s *Session) ObservedSchedule(i int) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.ObservedSchedule(i)
}

// WindowQS is one interval's slice of a windowed QS query: the QS vector
// of the schedule observed in interval Iteration, evaluated over the
// session-time window [From, To) clipped to that interval.
type WindowQS struct {
	// Iteration indexes the control interval.
	Iteration int `json:"iteration"`
	// From and To are the clipped window bounds in session time (time 0 is
	// the start of interval 0).
	From time.Duration `json:"from"`
	To   time.Duration `json:"to"`
	// Values is the QS vector, one entry per scenario SLO in spec order.
	Values []float64 `json:"values"`
}

// QS evaluates the scenario's SLO templates over the session-time window
// [from, to). The result holds one entry per completed interval the
// window intersects. An interval the window covers entirely is answered
// with a copy of the QS vector its tick recorded (the report's
// Observed); a clipped one — at most the window's first and last — is
// one evaluation over the clipped local window, through the template set
// the runtime compiled once (scenario.Runtime.EvalQS). Every value is
// bit-identical to Template.Eval over the clipped window. Windows are
// half-open [from, to); to == 0 means "everything observed so far";
// negative bounds and reversed windows are invalid.
func (s *Session) QS(from, to time.Duration) ([]WindowQS, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	interval := s.rt.Interval
	done := s.rt.StepsDone()
	if from < 0 || to < 0 {
		// A negative bound used to fall into the "everything so far" case
		// below and silently answer the wrong window; it is a client error.
		return nil, fmt.Errorf("tempo: invalid QS window: bounds must be non-negative; windows are half-open [from, to), got [%v, %v)", from, to)
	}
	if to == 0 {
		// "Everything observed so far". A from beyond the observed horizon
		// is a valid ask with an empty answer, not an invalid window.
		to = max(time.Duration(done)*interval, from)
	}
	if to < from {
		return nil, fmt.Errorf("tempo: invalid QS window: from must not exceed to; windows are half-open [from, to), got [%v, %v)", from, to)
	}
	first := int(from / interval)
	out := []WindowQS{}
	for i := first; i < done; i++ {
		lo := time.Duration(i) * interval
		if lo >= to {
			break
		}
		sched := s.rt.ObservedSchedule(i)
		if sched == nil {
			break
		}
		localFrom, localTo, evalTo := qs.ClipWindow(from, to, lo, interval, sched.Horizon)
		var vals []float64
		if localFrom == 0 && localTo == interval {
			vals = s.rt.ObservedQS(i)
		} else {
			vals = s.rt.EvalQS(sched, localFrom, evalTo)
		}
		out = append(out, WindowQS{
			Iteration: i,
			From:      lo + localFrom,
			To:        lo + localTo,
			Values:    vals,
		})
	}
	return out, nil
}

// Query runs a one-shot query plan over every control interval observed
// so far: the plan compiles to an operator pipeline (internal/query)
// that ingests each interval's schedule in order through the same path
// a standing subscription's ticks take, and renders the answer once at
// the end — the two modes agree by construction. The result is
// deterministic: the same session and plan always produce the same rows
// in the same order.
func (s *Session) Query(p *QueryPlan) (*QueryResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, err := query.Compile(p, s.rt.Interval)
	if err != nil {
		return nil, err
	}
	done := s.rt.StepsDone()
	for i := 0; i < done; i++ {
		sched := s.rt.ObservedSchedule(i)
		if sched == nil {
			break
		}
		if err := r.Ingest(i, sched); err != nil {
			return nil, err
		}
	}
	return r.Result(), nil
}

// NewQueryRunner compiles a plan into a standing runner for this session;
// the caller feeds it ticks (Session.ObservedSchedule) as they commit.
// Each session tick is an independent emulation of its control interval,
// which is exactly the granularity the runner ingests.
func (s *Session) NewQueryRunner(p *QueryPlan) (*QueryRunner, error) {
	return query.Compile(p, s.Interval())
}

// SLOPlan is the query plan that re-expresses the session's own SLO
// template set in the query layer — the ROADMAP's acceptance bar: its
// per-tick values are bit-identical to the control loop's observed QS
// vector (qs.EvalStream over each interval's full window).
func (s *Session) SLOPlan() *QueryPlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &query.Plan{
		Version: query.Version,
		Source:  "jobs",
		Ops: []query.OpSpec{{
			Op:   "aggregate",
			SLOs: append([]qs.Template(nil), s.rt.Templates...),
		}},
	}
}

// WhatIf scores candidate RM configurations in the scenario's What-if
// Model — the same model shape the controller scores its own candidates
// with, but a private instance, so probes neither mutate nor contend with
// the control loop. Row i of the result is the QS vector predicted for
// cfgs[i], one entry per scenario SLO in spec order. Results are
// deterministic: the same session and candidate always yield the same
// vector, at any parallelism.
func (s *Session) WhatIf(cfgs []ClusterConfig) ([][]float64, error) {
	if len(cfgs) == 0 {
		return nil, errors.New("tempo: WhatIf needs at least one candidate configuration")
	}
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("tempo: what-if candidate %d: %w", i, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.model == nil {
		m, err := s.rt.NewWhatIfModel(s.parallelism)
		if err != nil {
			return nil, err
		}
		s.model = m
	}
	return s.model.EvaluateBatch(cfgs)
}

// Objectives names the session's QS vector components, in order. The
// result is the caller's own copy.
func (s *Session) Objectives() []string { return slices.Clone(s.objectives) }
