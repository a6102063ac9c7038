package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPooledDeterminismGoldens locks the allocation-lean hot path to the
// committed goldens: every scenario is run twice in one process, so the
// second pass executes entirely on Sims, QS scratch, and event buffers
// dirtied by *other* scenarios' runs (the pools are process-global), and
// both passes must still produce byte-identical canonical reports. Any
// incomplete per-run reset in the pooled scheduler — a stale tenant
// queue, an untruncated event heap, a reused Schedule
// backing array leaking records — shows up here as golden drift.
func TestPooledDeterminismGoldens(t *testing.T) {
	dir := filepath.Join("testdata", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var specs []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".json") && !strings.HasSuffix(name, ".golden.json") {
			specs = append(specs, name)
		}
	}
	if len(specs) < 14 {
		t.Fatalf("expected at least 14 committed scenarios, found %d", len(specs))
	}
	for pass := 0; pass < 2; pass++ {
		for _, name := range specs {
			spec, err := LoadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("pass %d: loading %s: %v", pass, name, err)
			}
			rep, err := Run(spec, Options{Parallelism: 2})
			if err != nil {
				t.Fatalf("pass %d: running %s: %v", pass, name, err)
			}
			got, err := rep.MarshalCanonical()
			if err != nil {
				t.Fatalf("pass %d: marshaling %s: %v", pass, name, err)
			}
			goldenPath := filepath.Join(dir, strings.TrimSuffix(name, ".json")+".golden.json")
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("pass %d: reading golden for %s: %v", pass, name, err)
			}
			if string(got) != string(want) {
				t.Errorf("pass %d: %s: pooled run diverged from committed golden (%d vs %d bytes)",
					pass, name, len(got), len(want))
			}
		}
	}
}
