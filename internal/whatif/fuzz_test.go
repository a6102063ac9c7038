package whatif

import (
	"fmt"
	"math"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

// fuzzProfiles is a tiny fixed tenant mix so each fuzz iteration stays
// cheap; only the seeds vary.
func fuzzProfiles() []workload.TenantProfile {
	return []workload.TenantProfile{
		{
			Name:          "a",
			JobsPerHour:   30,
			NumMaps:       workload.Constant(2),
			NumReduces:    workload.Constant(1),
			MapSeconds:    workload.Constant(20),
			ReduceSeconds: workload.Constant(30),
		},
		{
			Name:        "b",
			JobsPerHour: 20,
			NumMaps:     workload.Constant(3),
			MapSeconds:  workload.Constant(15),
		},
	}
}

// traceFingerprint summarizes a trace for equality checks.
func traceFingerprint(tr *workload.Trace) string {
	s := fmt.Sprintf("%d:", len(tr.Jobs))
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		s += fmt.Sprintf("%s@%d/%d;", j.ID, j.Submit, j.TaskCount())
	}
	return s
}

// FuzzFromProfiles locks the seed-mixing invariants of the statistical
// what-if mode: Draw is deterministic (two draws over the same base seed
// are equal traces), distinct samples of one draw never alias each
// other's seeds (the splitmix64 mix is a bijection of base +
// (sample+1)·golden, so equal outputs would need equal inputs), and QS
// vectors over the drawn samples are bit-identical for any parallelism.
func FuzzFromProfiles(f *testing.F) {
	f.Add(int64(0), int64(1), byte(0))
	f.Add(int64(42), int64(977), byte(3))
	f.Add(int64(-1), int64(1)<<62, byte(255))
	// The linear-stride regression: before the splitmix64 mix, base 0
	// sample 1 aliased base k sample 0.
	f.Add(int64(0), int64(104729), byte(1))
	f.Fuzz(func(t *testing.T, baseA, baseB int64, sample byte) {
		s := int(sample)
		// Same base, different samples: never the same derived seed.
		if mixSeed(baseA, s) == mixSeed(baseA, s+1) {
			t.Fatalf("mixSeed(%d, %d) collides with sample %d", baseA, s, s+1)
		}
		if mixSeed(baseA, s) == mixSeed(baseA, s+7) {
			t.Fatalf("mixSeed(%d, %d) collides with sample %d", baseA, s, s+7)
		}
		// Distinct bases: the derived seeds must differ (the generated
		// traces may still coincide when both are empty).
		if baseA != baseB && mixSeed(baseA, s) == mixSeed(baseB, s) {
			t.Fatalf("mixSeed(%d, %d) == mixSeed(%d, %d)", baseA, s, baseB, s)
		}
		// Determinism: two draws over the same base are equal traces, and
		// sample s of a draw is independent of how many samples it holds.
		n := 1 + s%3
		draw1, err := Draw(fuzzProfiles(), 5*time.Minute, baseA, n)
		if err != nil {
			t.Fatal(err)
		}
		draw2, err := Draw(fuzzProfiles(), 5*time.Minute, baseA, n+1)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range draw1 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("drawn trace invalid: %v", err)
			}
			if !tr.Equal(draw2[i]) {
				t.Fatalf("same (base, sample %d) produced different traces:\n%s\n%s",
					i, traceFingerprint(tr), traceFingerprint(draw2[i]))
			}
		}
		// Parallelism independence: sequential and parallel batches are
		// bit-identical.
		templates := []qs.Template{
			{Queue: "a", Metric: qs.AvgResponseTime},
			{Queue: "b", Metric: qs.Throughput},
		}
		m, err := New(templates, draw1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cluster.Config{TotalContainers: 4, Tenants: map[string]cluster.TenantConfig{
			"a": {Weight: 2}, "b": {Weight: 1},
		}}
		m.Parallelism = 1
		seqRows, err := m.EvaluateBatch([]cluster.Config{cfg, cfg})
		if err != nil {
			t.Fatal(err)
		}
		m.Parallelism = 3
		parRows, err := m.EvaluateBatch([]cluster.Config{cfg, cfg})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seqRows {
			for j := range seqRows[i] {
				if seqRows[i][j] != parRows[i][j] {
					t.Fatalf("row %d obj %d: sequential %v != parallel %v",
						i, j, seqRows[i][j], parRows[i][j])
				}
			}
		}
	})
}

// FuzzScoreMatchesOracle locks the scoring engine to its independent
// reference (oracleScores) over fuzzed candidate sets: weights,
// max-shares, sample count and parallelism vary; the set always carries a
// duplicate candidate, and the engine runs both cold and warm.
func FuzzScoreMatchesOracle(f *testing.F) {
	f.Add(1.0, 2.0, byte(0), byte(0), byte(1), byte(1))
	f.Add(0.25, 8.0, byte(1), byte(3), byte(2), byte(4))
	f.Add(3.5, 3.5, byte(2), byte(2), byte(3), byte(2))
	f.Add(1e-3, 1e3, byte(4), byte(1), byte(2), byte(3))
	f.Fuzz(func(t *testing.T, wA, wB float64, maxA, maxB, samples, par byte) {
		for _, w := range []float64{wA, wB} {
			if math.IsNaN(w) || w < 1e-6 || w > 1e6 {
				t.Skip("weight outside the valid range")
			}
		}
		const capacity = 4
		mk := func(wA, wB float64, maxA, maxB byte) cluster.Config {
			return cluster.Config{TotalContainers: capacity, Tenants: map[string]cluster.TenantConfig{
				"a": {Weight: wA, MaxShare: int(maxA) % (capacity + 1)},
				"b": {Weight: wB, MaxShare: int(maxB) % (capacity + 1)},
			}}
		}
		cfgs := []cluster.Config{mk(1, 1, 0, 0), mk(wA, wB, maxA, maxB), mk(wB, wA, maxB, maxA), mk(wA, wB, maxA, maxB)}
		m, err := FromProfiles([]qs.Template{
			{Queue: "a", Metric: qs.AvgResponseTime},
			{Queue: "b", Metric: qs.Throughput},
		}, fuzzProfiles(), 5*time.Minute, 7, 1+int(samples)%3)
		if err != nil {
			t.Fatal(err)
		}
		m.Horizon = 5 * time.Minute
		m.Parallelism = 1 + int(par)%4
		checkAgainstOracle(t, m, cfgs)
	})
}
