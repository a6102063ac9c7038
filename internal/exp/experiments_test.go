package exp

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// update rewrites the committed experiment outputs instead of comparing
// against them:
//
//	go test ./internal/exp -run TestExperimentsGolden -update
//
// Inspect the diff before committing: every changed line is a changed
// number in the reproduced evaluation.
var update = flag.Bool("update", false, "rewrite golden experiment outputs")

// wallClock matches the one wall-clock figure a rendering carries (Table
// 2's predictor throughput); it is masked before comparing.
var wallClock = regexp.MustCompile(`\d+ tasks/sec`)

// TestExperimentsGolden renders every registry entry at seed 42 with its
// default iteration count and compares the output byte for byte against
// testdata/<name>.golden, the figures EXPERIMENTS.md reports.
func TestExperimentsGolden(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			res, err := e.Run(42, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := wallClock.ReplaceAllString(res.Render(), "N tasks/sec")
			path := filepath.Join("testdata", e.Name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden output (generate with `go test ./internal/exp -run TestExperimentsGolden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from %s:\n--- got ---\n%s--- want ---\n%s", e.Name, path, got, want)
			}
		})
	}
}
