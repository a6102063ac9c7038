package scenario

import (
	"path/filepath"
	"testing"

	"tempo/internal/whatif"
	"tempo/internal/workload"
)

// TestWhatIfSamplesOwnedByRuntime: the runtime owns the what-if samples.
// Build draws nothing; the first Apply hands the controller's model the
// scenario trace (replay) or Draw's samples for the spec's seed and
// count (windowed); a serving-layer model from NewWhatIfModel scores the
// very same trace pointers, and later ticks keep them.
func TestWhatIfSamplesOwnedByRuntime(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		samples int
	}{
		{"steady-two-tenant.json", 0},
		{"tenant-arrival.json", 3},
	} {
		spec, err := LoadFile(filepath.Join("testdata", "scenarios", tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		spec.Controller.WhatIfSamples = tc.samples
		rt, err := Build(spec, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if rt.samples != nil || rt.model.Traces != nil {
			t.Fatalf("%s: Build drew %d samples", tc.spec, len(rt.samples))
		}
		want := []*workload.Trace{rt.Trace}
		if !spec.Replay {
			if want, err = whatif.Draw(rt.Profiles, rt.Interval, spec.Seed+101, tc.samples); err != nil {
				t.Fatal(err)
			}
		}
		var first []*workload.Trace
		for tick := 0; tick < 2; tick++ {
			if _, err := rt.Step(); err != nil {
				t.Fatal(err)
			}
			probe, err := rt.NewWhatIfModel(1)
			if err != nil {
				t.Fatal(err)
			}
			got := rt.model.Traces
			if first == nil {
				first = got
			}
			if len(got) != len(want) || len(probe.Traces) != len(want) {
				t.Fatalf("%s tick %d: controller %d samples, probe %d, want %d", tc.spec, tick, len(got), len(probe.Traces), len(want))
			}
			for s := range want {
				if probe.Traces[s] != got[s] || got[s] != first[s] {
					t.Fatalf("%s tick %d: sample %d differs in the probe model or from tick 0's", tc.spec, tick, s)
				}
				if (spec.Replay && got[s] != rt.Trace) || !got[s].Equal(want[s]) {
					t.Fatalf("%s tick %d: sample %d is not the expected workload", tc.spec, tick, s)
				}
			}
		}
	}
}
