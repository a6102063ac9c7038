package tempo_test

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"tempo"
	"tempo/internal/qs"
	"tempo/internal/scenario"
	"tempo/internal/store"
)

const sessionSpecJSON = `{
  "name": "session-test",
  "seed": 7,
  "capacity": 8,
  "interval_minutes": 5,
  "iterations": 4,
  "replay": true,
  "tenants": [
    {"name": "deadline", "profile": "deadline-driven", "scale": 0.4,
     "deadline": {"factor_lo": 1.2, "factor_hi": 1.8}},
    {"name": "besteffort", "profile": "best-effort", "scale": 0.4}
  ],
  "slos": [
    {"queue": "deadline", "metric": "deadline_violations", "slack": 0.25, "target": 0},
    {"queue": "besteffort", "metric": "avg_response_time"}
  ],
  "initial": {},
  "controller": {"candidates": 3}
}`

func newSessionSpec(t *testing.T) *tempo.Scenario {
	t.Helper()
	spec, err := tempo.LoadScenario(strings.NewReader(sessionSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSessionMatchesScenarioRun is the handle's core contract: driving a
// scenario tick by tick — with QS and what-if traffic interleaved between
// ticks — produces byte-for-byte the report of the one-shot sequential
// run.
func TestSessionMatchesScenarioRun(t *testing.T) {
	spec := newSessionSpec(t)
	sess, err := tempo.NewSession(spec, tempo.ScenarioOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	probe := sess.Current() // equal-weight default; a valid what-if candidate
	for i := 0; i < spec.Iterations; i++ {
		if sess.Done() {
			t.Fatalf("session done after %d ticks, want %d", i, spec.Iterations)
		}
		it, err := sess.Tick()
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if it.Index != i {
			t.Fatalf("tick %d reported index %d", i, it.Index)
		}
		// Interleaved read traffic must not perturb the trajectory.
		if _, err := sess.QS(0, 0); err != nil {
			t.Fatalf("qs after tick %d: %v", i, err)
		}
		if _, err := sess.WhatIf([]tempo.ClusterConfig{probe}); err != nil {
			t.Fatalf("what-if after tick %d: %v", i, err)
		}
	}
	if !sess.Done() {
		t.Fatal("session not done after the full budget")
	}
	if _, err := sess.Tick(); err != tempo.ErrSessionDone {
		t.Fatalf("tick past budget: got %v, want ErrSessionDone", err)
	}

	got, err := sess.Report().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := scenario.Run(spec, scenario.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("session-driven report differs from scenario.Run")
	}
}

// TestSessionQSWindows locks the window semantics: full windows reproduce
// the per-iteration Observed vectors, sub-windows clip, and invalid
// windows error.
func TestSessionQSWindows(t *testing.T) {
	spec := newSessionSpec(t)
	sess, err := tempo.NewSession(spec, tempo.ScenarioOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sess.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	interval := sess.Interval()

	windows, err := sess.QS(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 2 {
		t.Fatalf("got %d windows, want 2 (completed ticks)", len(windows))
	}
	rep := sess.Report()
	for i, win := range windows {
		if win.Iteration != i {
			t.Fatalf("window %d labeled iteration %d", i, win.Iteration)
		}
		obs := rep.Iterations[i].Observed
		for k := range obs {
			if win.Values[k] != obs[k] {
				t.Fatalf("window %d objective %d: %v != observed %v", i, k, win.Values[k], obs[k])
			}
		}
	}

	// Sub-windows: one inside iteration 1 only of the two-SLO session, and
	// the benchmark's /qs shape [L/2, L) on the first tick of the
	// 173-template stress fixture. Each hits one interval, is labelled
	// with its bounds, and bit-equals per-template Template.Eval over the
	// clipped local window.
	stressSpec, err := tempo.LoadScenarioFile("bench/workloads/stress.json")
	if err != nil {
		t.Fatal(err)
	}
	stress, err := tempo.NewSession(stressSpec, tempo.ScenarioOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stress.Tick(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		sess      *tempo.Session
		iteration int
		from, to  time.Duration
	}{
		{"inside iteration 1", sess, 1, interval + time.Minute, 2*interval - time.Minute},
		{"stress [L/2, L)", stress, 0, stress.Interval() / 2, stress.Interval()},
	} {
		windows, err := c.sess.QS(c.from, c.to)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(windows) != 1 || windows[0].Iteration != c.iteration {
			t.Fatalf("%s: sub-window hit %+v, want iteration %d only", c.name, windows, c.iteration)
		}
		if windows[0].From != c.from || windows[0].To != c.to {
			t.Fatalf("%s: sub-window not clipped: %+v", c.name, windows[0])
		}
		sched := c.sess.ObservedSchedule(c.iteration)
		lo := time.Duration(c.iteration) * c.sess.Interval()
		localFrom, _, evalTo := qs.ClipWindow(c.from, c.to, lo, c.sess.Interval(), sched.Horizon)
		templates := c.sess.SLOPlan().Ops[0].SLOs
		if len(windows[0].Values) != len(templates) {
			t.Fatalf("%s: %d values for %d templates", c.name, len(windows[0].Values), len(templates))
		}
		for k, tpl := range templates {
			want := tpl.Eval(sched, localFrom, evalTo)
			if got := windows[0].Values[k]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: template %s over [%v, %v): session %v, Template.Eval %v (must be bit-identical)",
					c.name, tpl.Name(), localFrom, evalTo, got, want)
			}
		}
	}

	// A window beyond everything observed yet — with and without an
	// explicit upper bound ("from now on" must be a valid, empty ask).
	windows, err = sess.QS(10*interval, 11*interval)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 0 {
		t.Fatalf("future window returned %d entries, want 0", len(windows))
	}
	windows, err = sess.QS(10*interval, 0)
	if err != nil {
		t.Fatalf("open-ended future window rejected: %v", err)
	}
	if len(windows) != 0 {
		t.Fatalf("open-ended future window returned %d entries, want 0", len(windows))
	}

	if _, err := sess.QS(-time.Minute, interval); err == nil {
		t.Fatal("negative from accepted")
	}
	if _, err := sess.QS(2*interval, interval); err == nil {
		t.Fatal("inverted window accepted")
	}
}

// TestSessionQSResumed checks QS on resumed sessions: one resumed from a
// mid-run snapshot round-tripped through the store's codec, and one
// re-driven from its schedules alone, answer every window bit for bit
// like the session that never stopped. Whole intervals before the
// snapshot cursor are read from the snapshot's restored Observed
// vectors, the rest from re-driven ticks.
func TestSessionQSResumed(t *testing.T) {
	stress, err := tempo.LoadScenarioFile("bench/workloads/stress.json")
	if err != nil {
		t.Fatal(err)
	}
	stress.Iterations = 5
	small := newSessionSpec(t)
	small.Iterations = 6
	for _, spec := range []*tempo.Scenario{small, stress} {
		opts := tempo.ScenarioOptions{Parallelism: 1}
		full, err := tempo.NewSession(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		n := spec.Iterations
		var snap *tempo.SessionSnapshot
		for i := 0; i < n; i++ {
			if i == n/2 {
				if snap, err = full.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := full.Tick(); err != nil {
				t.Fatalf("%s: tick %d: %v", spec.Name, i, err)
			}
		}
		schedules := make([]*tempo.Schedule, n)
		for i := range schedules {
			schedules[i] = full.ObservedSchedule(i)
		}
		decoded, err := store.DecodeSnapshot(store.EncodeSnapshot(nil, snap))
		if err != nil {
			t.Fatal(err)
		}
		fromSnap, err := tempo.ResumeSession(spec, opts, decoded, schedules)
		if err != nil {
			t.Fatal(err)
		}
		fromWAL, err := tempo.ResumeSession(spec, opts, nil, schedules)
		if err != nil {
			t.Fatal(err)
		}

		L := full.Interval()
		for _, w := range [][2]time.Duration{
			{0, 0},                              // everything observed
			{L / 3, time.Duration(n-1)*L + L/3}, // clipped at both ends
			{time.Duration(n-4)*L + L/2, time.Duration(n) * L}, // the bench's /qs shape
		} {
			want, err := full.QS(w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct {
				name string
				sess *tempo.Session
			}{{"snapshot", fromSnap}, {"nil snapshot", fromWAL}} {
				got, err := r.sess.QS(w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: QS[%v, %v) resumed from %s: %d windows, want %d", spec.Name, w[0], w[1], r.name, len(got), len(want))
				}
				for i := range got {
					g, x := got[i], want[i]
					if g.Iteration != x.Iteration || g.From != x.From || g.To != x.To || !sameBits(g.Values, x.Values) {
						t.Fatalf("%s: QS[%v, %v) resumed from %s: window %d is iteration %d [%v, %v), want iteration %d [%v, %v), or its values differ in bits",
							spec.Name, w[0], w[1], r.name, i, g.Iteration, g.From, g.To, x.Iteration, x.From, x.To)
					}
				}
			}
		}
	}
}

// TestSessionQSCopies checks that a whole-interval QS answer belongs to
// the caller: writing into its Values changes neither the next QS answer
// nor the report's Observed vector it was read from.
func TestSessionQSCopies(t *testing.T) {
	sess, err := tempo.NewSession(newSessionSpec(t), tempo.ScenarioOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sess.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := sess.QS(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := make([][]float64, len(want))
	for i, w := range want {
		orig[i] = append([]float64(nil), w.Values...)
		for k := range w.Values {
			w.Values[k] = math.Inf(1)
		}
	}
	again, err := sess.QS(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := sess.Report()
	for i := range orig {
		if !sameBits(again[i].Values, orig[i]) {
			t.Fatalf("interval %d: QS after a caller write returned %v, want %v", i, again[i].Values, orig[i])
		}
		if !sameBits(rep.Iterations[i].Observed, orig[i]) {
			t.Fatalf("interval %d: report Observed after a caller write is %v, want %v", i, rep.Iterations[i].Observed, orig[i])
		}
	}
}

// TestSessionObjectivesCopies checks that Objectives names every SLO in
// spec order, and that the names belong to the caller: writing into one
// answer does not change the next.
func TestSessionObjectivesCopies(t *testing.T) {
	spec := newSessionSpec(t)
	sess, err := tempo.NewSession(spec, tempo.ScenarioOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	names := sess.Objectives()
	slos := sess.SLOPlan().Ops[0].SLOs
	if len(names) != len(spec.SLOs) || len(names) != len(slos) {
		t.Fatalf("%d objectives for %d SLOs", len(names), len(spec.SLOs))
	}
	for i, tmpl := range slos {
		if names[i] != tmpl.Name() {
			t.Errorf("objective %d is %q, want %q", i, names[i], tmpl.Name())
		}
	}
	want := slices.Clone(names)
	names[0] = "overwritten"
	if again := sess.Objectives(); !slices.Equal(again, want) {
		t.Fatalf("Objectives after a caller write = %v, want %v", again, want)
	}
}

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSessionWhatIfValidation rejects empty and invalid candidate sets.
func TestSessionWhatIfValidation(t *testing.T) {
	sess, err := tempo.NewSession(newSessionSpec(t), tempo.ScenarioOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.WhatIf(nil); err == nil {
		t.Fatal("empty candidate set accepted")
	}
	bad := sess.Current()
	dl := bad.Tenants["deadline"]
	dl.Weight = -1
	bad.Tenants["deadline"] = dl
	if _, err := sess.WhatIf([]tempo.ClusterConfig{bad}); err == nil {
		t.Fatal("invalid candidate accepted")
	}
	rows, err := sess.WhatIf([]tempo.ClusterConfig{sess.Current()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 2 {
		t.Fatalf("what-if shape %v, want 1x2", rows)
	}
}
