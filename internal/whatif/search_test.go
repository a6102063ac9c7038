package whatif

import (
	"math"
	"reflect"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

func searchConfigs() []cluster.Config {
	mk := func(total, maxA int, wA float64) cluster.Config {
		return cluster.Config{TotalContainers: total, Tenants: map[string]cluster.TenantConfig{
			"A": {Weight: wA, MaxShare: maxA},
		}}
	}
	return []cluster.Config{mk(20, 0, 1), mk(20, 10, 1.5), mk(16, 0, 0.8)}
}

// oracleScores is the engine's independent reference: every
// (configuration, sample) pair predicted on its own with cluster.Run and
// scored with qs.EvalAll, no cache, no pool, averaged in sample order.
func oracleScores(t testing.TB, m *Model, cfgs []cluster.Config) [][]float64 {
	t.Helper()
	out := make([][]float64, len(cfgs))
	for c := range cfgs {
		acc := make([]float64, len(m.Templates))
		for _, tr := range m.Traces {
			sched, err := cluster.Run(tr, cfgs[c], cluster.Options{Horizon: m.Horizon})
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range qs.EvalAll(m.Templates, sched, 0, sched.Horizon+time.Nanosecond) {
				acc[i] += x
			}
		}
		for i := range acc {
			acc[i] /= float64(len(m.Traces))
		}
		out[c] = acc
	}
	return out
}

// checkAgainstOracle asserts that EvaluateBatch and EvaluateSearch (cold,
// then warm out of the config tier) are all Float64bits-equal to
// oracleScores.
func checkAgainstOracle(t testing.TB, m *Model, cfgs []cluster.Config) {
	t.Helper()
	want := oracleScores(t, m, cfgs)
	check := func(what string, got [][]float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for c := range want {
			if len(got[c]) != len(want[c]) {
				t.Fatalf("%s: row %d is %v, want %v", what, c, got[c], want[c])
			}
			for i := range want[c] {
				if math.Float64bits(got[c][i]) != math.Float64bits(want[c][i]) {
					t.Fatalf("%s: row %d objective %d: %v != oracle %v", what, c, i, got[c][i], want[c][i])
				}
			}
		}
	}
	m.search = nil
	rows, err := m.EvaluateBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	check("EvaluateBatch", rows)
	for _, what := range []string{"EvaluateSearch cold", "EvaluateSearch warm"} {
		preds, _, _, err := m.EvaluateSearch(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		check(what, preds)
	}
}

// TestEvaluateSearchMatchesBatch: every entry point of the scoring engine
// must be bit-identical to the independent oracle — at parallelism 1 and
// 4, with duplicate configurations in the set — and a second
// EvaluateSearch call must come entirely out of the cross-tick config
// tier.
func TestEvaluateSearchMatchesBatch(t *testing.T) {
	cfgs := append(searchConfigs(), searchConfigs()[1], searchConfigs()[0])
	for _, par := range []int{1, 4} {
		m, err := FromProfiles(testTemplates(),
			[]workload.TenantProfile{workload.BestEffort("A", 1)},
			time.Hour, 42, 2)
		if err != nil {
			t.Fatal(err)
		}
		m.Horizon = time.Hour
		m.Parallelism = par
		checkAgainstOracle(t, m, cfgs)
	}

	m, err := FromTrace(testTemplates(), testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	m.Horizon = time.Hour
	cfgs = searchConfigs()
	for call := 0; call < 3; call++ {
		_, fresh, reused, err := m.EvaluateSearch(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if call == 0 && (fresh[i] != 1 || reused[i] != 0) {
				t.Fatalf("cold call: config %d fresh=%d reused=%d", i, fresh[i], reused[i])
			}
			if call > 0 && (fresh[i] != 0 || reused[i] != 1) {
				t.Fatalf("warm call %d: config %d fresh=%d reused=%d, want pure reuse", call, i, fresh[i], reused[i])
			}
		}
	}
}

// TestEvaluateSearchProfileModeReuses: cross-tick reuse holds on both of
// reconcile's identity paths — the same trace pointers call after call,
// and a sample replaced by a new trace of equal content, which is
// matched by content.
func TestEvaluateSearchProfileModeReuses(t *testing.T) {
	profiles := []workload.TenantProfile{workload.BestEffort("A", 1)}
	m, err := FromProfiles(testTemplates(), profiles, time.Hour, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := searchConfigs()
	want, err := m.EvaluateBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.EvaluateSearch(cfgs); err != nil {
		t.Fatal(err)
	}
	redrawn, err := Draw(profiles, time.Hour, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"pointer", "content"} {
		if step == "content" {
			m.Traces[1] = redrawn[1]
		}
		preds, fresh, reused, err := m.EvaluateSearch(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(preds, want) {
			t.Fatalf("%s: warm search preds %v != batch preds %v", step, preds, want)
		}
		for i := range cfgs {
			if fresh[i] != 0 || reused[i] != len(m.Traces) {
				t.Fatalf("%s: config %d fresh=%d reused=%d, want full reuse", step, i, fresh[i], reused[i])
			}
		}
	}
}

// TestEvaluateSearchStaleTraceNeverReused is the staleness regression:
// when a sample's trace is replaced by a different workload between two
// EvaluateSearch calls, every cached entry for that sample must be
// invalidated — its predictions come from fresh simulations of the new
// trace, never from the old one's cache — while the untouched sample
// keeps its entries.
func TestEvaluateSearchStaleTraceNeverReused(t *testing.T) {
	traceFor := func(seed int64) *workload.Trace {
		tr, err := workload.Generate(
			[]workload.TenantProfile{workload.BestEffort("A", 1)},
			workload.GenerateOptions{Horizon: time.Hour, Seed: seed},
		)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	m, err := New(testTemplates(), []*workload.Trace{traceFor(1), traceFor(3)})
	if err != nil {
		t.Fatal(err)
	}
	m.Horizon = time.Hour
	cfgs := searchConfigs()
	oldPreds, _, _, err := m.EvaluateSearch(cfgs)
	if err != nil {
		t.Fatal(err)
	}

	// Sample 0's workload changes: same shape, different content.
	m.Traces[0] = traceFor(2)
	ref, err := New(testTemplates(), []*workload.Trace{traceFor(2), traceFor(3)})
	if err != nil {
		t.Fatal(err)
	}
	ref.Horizon = time.Hour
	want, err := ref.EvaluateBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	preds, fresh, reused, err := m.EvaluateSearch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(preds, want) {
		t.Fatalf("post-replacement preds %v != fresh model preds %v", preds, want)
	}
	if reflect.DeepEqual(preds, oldPreds) {
		t.Fatal("fixture too weak: old and new traces score identically")
	}
	for i := range cfgs {
		if fresh[i] != 1 || reused[i] != 1 {
			t.Fatalf("config %d fresh=%d reused=%d, want sample 0 re-simulated and sample 1 reused", i, fresh[i], reused[i])
		}
	}
}

// TestCertificateTierAcrossParallelism scores candidate sets, most of
// them covered by a certificate, at one worker and at four: every
// EvaluateSearch row, fresh count and reused count must agree, cold and
// warm, and every row, EvaluateBatch's too, match the oracle. The first call starts cold, so its reused pairs are
// certificate hits, and there must be some.
func TestCertificateTierAcrossParallelism(t *testing.T) {
	mk := func(capacity int, wA, wB float64, maxA int, timeout time.Duration) cluster.Config {
		return cluster.Config{TotalContainers: capacity, Tenants: map[string]cluster.TenantConfig{
			"a": {Weight: wA, MaxShare: maxA, SharePreemptTimeout: timeout},
			"b": {Weight: wB},
		}}
	}
	calls := [][]cluster.Config{
		{mk(4, 1, 1, 0, 0), mk(4, 2, 2, 0, 0), mk(4, 1, 1, 4, 0), mk(4, 1, 1, 0, 24*time.Hour), mk(4, 1, 5, 0, 0), mk(5, 1, 1, 0, 0)},
		{mk(4, 1, 1, 0, 0), mk(4, 3, 3, 0, 0), mk(4, 5, 1, 0, 0), mk(4, 1, 1, 1, 0)},
	}
	run := func(parallelism int) (fresh, reused [][]int) {
		m, err := FromProfiles([]qs.Template{
			{Queue: "a", Metric: qs.AvgResponseTime},
			{Queue: "b", Metric: qs.Throughput},
		}, fuzzProfiles(), time.Hour, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		m.Parallelism = parallelism
		for _, cfgs := range calls {
			p, f, r, err := m.EvaluateSearch(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := m.EvaluateBatch(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleScores(t, m, cfgs); !reflect.DeepEqual(p, want) || !reflect.DeepEqual(batch, want) {
				t.Fatalf("parallelism %d: search %v, batch %v, oracle %v", parallelism, p, batch, want)
			}
			fresh, reused = append(fresh, f), append(reused, r)
		}
		return fresh, reused
	}
	fresh1, reused1 := run(1)
	fresh4, reused4 := run(4)
	if !reflect.DeepEqual(fresh1, fresh4) || !reflect.DeepEqual(reused1, reused4) {
		t.Fatalf("counts differ: parallelism 1 fresh %v reused %v, parallelism 4 fresh %v reused %v", fresh1, reused1, fresh4, reused4)
	}
	hits := 0
	for _, r := range reused1[0] {
		hits += r
	}
	if hits == 0 {
		t.Errorf("the cold call served no pair from a certificate: fresh %v", fresh1[0])
	}
}
