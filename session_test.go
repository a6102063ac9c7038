package tempo_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"tempo"
	"tempo/internal/qs"
	"tempo/internal/scenario"
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
