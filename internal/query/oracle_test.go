package query

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tempo/internal/qs"
	"tempo/internal/scenario"
)

// TestQueryVsOracleGoldens is the acceptance criterion from the ROADMAP:
// qs.EvalStream re-expressed as a query plan (an slos aggregate over the
// events relation) produces byte-identical QS values to the oracle on
// every committed golden scenario — each tick's rows against
// qs.EvalStream over that tick's full observation window, compared via
// Float64bits so -0 vs 0 and NaN payload drift would fail too.
func TestQueryVsOracleGoldens(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("..", "scenario", "testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, path := range specs {
		if strings.HasSuffix(path, ".golden.json") {
			continue
		}
		path := path
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		ran++
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := scenario.LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := scenario.Build(spec, scenario.Options{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(rt.Templates) == 0 {
				t.Skip("scenario declares no SLO templates")
			}
			for !rt.Done() {
				if _, err := rt.Step(); err != nil {
					t.Fatal(err)
				}
			}
			// The slos aggregate reads the records whatever the source;
			// both forms must match the oracle bit for bit.
			for _, source := range []string{"events", "jobs"} {
				plan := &Plan{
					Version: Version,
					Source:  source,
					Ops:     []OpSpec{{Op: "aggregate", SLOs: rt.Templates}},
				}
				r, err := Compile(plan, rt.Interval)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < rt.StepsDone(); i++ {
					sched := rt.ObservedSchedule(i)
					rows, err := r.PushTick(i, sched)
					if err != nil {
						t.Fatal(err)
					}
					want := qs.EvalStream(rt.Templates, sched, 0, sched.Horizon+time.Nanosecond)
					if len(rows) != len(want) {
						t.Fatalf("%s: tick %d: %d rows, want %d", source, i, len(rows), len(want))
					}
					for j, rw := range rows {
						got := rw.Values["value"]
						if math.Float64bits(got) != math.Float64bits(want[j]) {
							t.Fatalf("%s: tick %d slo %d (%s): query %v != oracle %v",
								source, i, j, rt.Templates[j].Name(), got, want[j])
						}
					}
				}
			}
		})
	}
	if ran < 10 {
		t.Fatalf("only %d scenarios exercised — the parity matrix must not shrink", ran)
	}
}
