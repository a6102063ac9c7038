package scenario_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"tempo/internal/cluster"
	"tempo/internal/pald"
	"tempo/internal/scenario"
)

// TestSearchParityExhaustiveVsIncremental is the standing proof
// obligation behind the controller's incremental candidate search: every
// committed controller-enabled scenario must produce a byte-identical
// canonical report whether candidates are scored exhaustively or through
// the search that warm-starts them from the cross-tick cache. Each
// scenario runs under two strategies, the default PALD optimizer and
// RandomSearch, which propose differently shaped candidate streams. The
// nightly workflow runs this sweep under -race.
func TestSearchParityExhaustiveVsIncremental(t *testing.T) {
	for _, path := range specPaths(t) {
		path := path
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		spec, err := scenario.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Controller.Disabled {
			continue
		}
		for _, strat := range []string{"pald", "random-search"} {
			strat := strat
			t.Run(name+"/"+strat, func(t *testing.T) {
				t.Parallel()
				run := func(exhaustive bool) []byte {
					opts := scenario.Options{Parallelism: 2, ExhaustiveSearch: exhaustive}
					if strat == "random-search" {
						maxStep := spec.Controller.MaxStep
						if maxStep == 0 {
							maxStep = 0.2
						}
						dim := cluster.DefaultSpace(spec.Capacity, spec.TenantNames()).Dim()
						// A fresh identically seeded strategy per run: both
						// sides must consume the same proposal stream.
						rs, err := pald.NewRandomSearch(dim, maxStep, spec.Seed+7)
						if err != nil {
							t.Fatal(err)
						}
						opts.Strategy = rs
					}
					rep, err := scenario.Run(spec, opts)
					if err != nil {
						t.Fatal(err)
					}
					b, err := rep.MarshalCanonical()
					if err != nil {
						t.Fatal(err)
					}
					return b
				}
				incremental := run(false)
				exhaustive := run(true)
				if !bytes.Equal(incremental, exhaustive) {
					t.Errorf("incremental search changed the report:\n%s", firstDiff(incremental, exhaustive))
				}
			})
		}
	}
}
