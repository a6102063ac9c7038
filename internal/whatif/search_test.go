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
// (configuration, sample) pair predicted on its own (cluster.Run, or the
// model's custom Predict) and scored with qs.EvalAll, no cache, no pool,
// averaged in sample order.
func oracleScores(t testing.TB, m *Model, cfgs []cluster.Config) [][]float64 {
	t.Helper()
	samples := m.Samples
	if samples < 1 {
		samples = 1
	}
	predict := m.Predict
	if predict == nil {
		predict = DefaultPredictor
	}
	out := make([][]float64, len(cfgs))
	for c := range cfgs {
		acc := make([]float64, len(m.Templates))
		for s := 0; s < samples; s++ {
			tr, err := m.Gen(s)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := predict(tr, cfgs[c], m.Horizon)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range qs.EvalAll(m.Templates, sched, 0, sched.Horizon+time.Nanosecond) {
				acc[i] += x
			}
		}
		for i := range acc {
			acc[i] /= float64(samples)
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
// 4, with duplicate configurations in the set, with the built-in
// predictor and a custom one — and a second EvaluateSearch call must come
// entirely out of the cross-tick config tier.
func TestEvaluateSearchMatchesBatch(t *testing.T) {
	cfgs := append(searchConfigs(), searchConfigs()[1], searchConfigs()[0])
	halved := func(trace *workload.Trace, cfg cluster.Config, horizon time.Duration) (*cluster.Schedule, error) {
		cfg.TotalContainers = (cfg.TotalContainers + 1) / 2
		return cluster.Run(trace, cfg, cluster.Options{Horizon: horizon})
	}
	for _, predict := range []Predictor{nil, halved} {
		for _, par := range []int{1, 4} {
			m, err := FromProfiles(testTemplates(),
				[]workload.TenantProfile{workload.BestEffort("A", 1)},
				time.Hour, 42)
			if err != nil {
				t.Fatal(err)
			}
			m.Horizon = time.Hour
			m.Samples = 2
			m.Parallelism = par
			m.Predict = predict
			checkAgainstOracle(t, m, cfgs)
		}
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
// reconcile's identity paths — FromProfiles hands back the pointer of its
// first draw, and a caller's own generator that redraws a new (but
// bit-identical) trace every call is matched by content.
func TestEvaluateSearchProfileModeReuses(t *testing.T) {
	profiles := []workload.TenantProfile{workload.BestEffort("A", 1)}
	memoised, err := FromProfiles(testTemplates(), profiles, time.Hour, 42)
	if err != nil {
		t.Fatal(err)
	}
	redrawing, err := New(testTemplates(), func(sample int) (*workload.Trace, error) {
		return workload.Generate(profiles, workload.GenerateOptions{Horizon: time.Hour, Seed: 42 + int64(sample)})
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Model{"pointer": memoised, "content": redrawing} {
		m.Samples = 2
		cfgs := searchConfigs()
		want, err := m.EvaluateBatch(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := m.EvaluateSearch(cfgs); err != nil {
			t.Fatal(err)
		}
		preds, fresh, reused, err := m.EvaluateSearch(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(preds, want) {
			t.Fatalf("%s: warm search preds %v != batch preds %v", name, preds, want)
		}
		for i := range cfgs {
			if fresh[i] != 0 || reused[i] != m.Samples {
				t.Fatalf("%s: config %d fresh=%d reused=%d, want full reuse across redrawn traces", name, i, fresh[i], reused[i])
			}
		}
	}
}

// TestEvaluateSearchStaleTraceNeverReused is the staleness regression:
// when the generator starts returning a different workload between two
// EvaluateSearch calls, every cached entry for the regenerated sample
// must be invalidated — predictions come from fresh simulations of the
// new trace, never from the old one's cache.
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
	seed := int64(1)
	m, err := New(testTemplates(), func(int) (*workload.Trace, error) { return traceFor(seed), nil })
	if err != nil {
		t.Fatal(err)
	}
	m.Horizon = time.Hour
	cfgs := searchConfigs()
	oldPreds, _, _, err := m.EvaluateSearch(cfgs)
	if err != nil {
		t.Fatal(err)
	}

	// The workload regenerates: same shape, different content.
	seed = 2
	fresh2, err := FromTrace(testTemplates(), traceFor(2))
	if err != nil {
		t.Fatal(err)
	}
	fresh2.Horizon = time.Hour
	want, err := fresh2.EvaluateBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	preds, fresh, reused, err := m.EvaluateSearch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(preds, want) {
		t.Fatalf("post-regeneration preds %v != fresh model preds %v", preds, want)
	}
	if reflect.DeepEqual(preds, oldPreds) {
		t.Fatal("fixture too weak: old and new traces score identically")
	}
	for i := range cfgs {
		if reused[i] != 0 {
			t.Fatalf("config %d reused %d stale entries after trace regeneration", i, reused[i])
		}
		if fresh[i] != 1 {
			t.Fatalf("config %d fresh=%d, want full re-simulation", i, fresh[i])
		}
	}
}
