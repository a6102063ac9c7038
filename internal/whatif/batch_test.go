package whatif

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/workload"
)

func batchConfigs(capacity int) []cluster.Config {
	var cfgs []cluster.Config
	for _, w := range []float64{0.5, 1, 2, 4} {
		cfgs = append(cfgs, cluster.Config{
			TotalContainers: capacity,
			Tenants:         map[string]cluster.TenantConfig{"A": {Weight: w}},
		})
	}
	return cfgs
}

// TestEvaluateBatchBitIdenticalAcrossParallelism is the tentpole guarantee:
// the same candidate set scored at Parallelism 1 and 8 yields bit-identical
// QS vectors, which also match per-config Evaluate calls.
func TestEvaluateBatchBitIdenticalAcrossParallelism(t *testing.T) {
	m, err := FromProfiles(testTemplates(),
		[]workload.TenantProfile{workload.BestEffort("A", 1)},
		time.Hour, 42, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := batchConfigs(20)

	m.Parallelism = 1
	seq, err := m.EvaluateBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	m.Parallelism = 8
	par, err := m.EvaluateBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(cfgs) || len(par) != len(cfgs) {
		t.Fatalf("row counts %d/%d, want %d", len(seq), len(par), len(cfgs))
	}
	for c := range cfgs {
		for i := range seq[c] {
			if seq[c][i] != par[c][i] {
				t.Fatalf("config %d objective %d: sequential %v != parallel %v", c, i, seq[c][i], par[c][i])
			}
		}
	}
	// Row i must equal a standalone Evaluate of cfgs[i].
	for c, cfg := range cfgs {
		one, err := m.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range one {
			if one[i] != seq[c][i] {
				t.Fatalf("config %d: Evaluate %v != batch row %v", c, one, seq[c])
			}
		}
	}
}

func TestEvaluateParallelSamplesMatchSequential(t *testing.T) {
	m, err := FromProfiles(testTemplates(),
		[]workload.TenantProfile{workload.BestEffort("A", 1)},
		time.Hour, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	m.Parallelism = 1
	seq, err := m.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Parallelism = 8
	par, err := m.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("objective %d: %v != %v", i, seq[i], par[i])
		}
	}
}

func TestSensitivityParallelMatchesSequential(t *testing.T) {
	m, err := FromProfiles(testTemplates(),
		[]workload.TenantProfile{workload.BestEffort("A", 1)},
		time.Hour, 11, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	m.Parallelism = 1
	mean1, sd1, err := m.Sensitivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Parallelism = 8
	mean8, sd8, err := m.Sensitivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mean1 {
		if mean1[i] != mean8[i] || sd1[i] != sd8[i] {
			t.Fatalf("objective %d: (%v,%v) != (%v,%v)", i, mean1[i], sd1[i], mean8[i], sd8[i])
		}
	}
}

func TestEvaluateBatchEmpty(t *testing.T) {
	m, err := FromTrace(testTemplates(), testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := m.EvaluateBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestEvaluateBatchDeterministicError pins the error-aggregation contract:
// whichever worker hits an error first, the reported failure is always the
// lowest (config, sample) pair — the one sequential evaluation would see —
// and EvaluateSearch reports the same error.
func TestEvaluateBatchDeterministicError(t *testing.T) {
	good, err := workload.Generate(
		[]workload.TenantProfile{workload.BestEffort("A", 1)},
		workload.GenerateOptions{Horizon: 30 * time.Minute, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	broken := *good
	broken.Jobs = append([]workload.JobSpec(nil), good.Jobs...)
	broken.Jobs[0].Submit = -time.Second
	invalid := batchConfigs(20)
	invalid[1].Tenants["A"] = cluster.TenantConfig{Weight: -1}
	for _, tc := range []struct {
		name   string
		traces []*workload.Trace
		cfgs   []cluster.Config
		want   string
	}{
		{"prediction failure", []*workload.Trace{good, &broken, good, &broken}, batchConfigs(20), "whatif: config 0: predicting sample 1: "},
		{"invalid candidate", []*workload.Trace{good, good, &broken, good}, invalid, "whatif: config 1: "},
	} {
		m, err := New(testTemplates(), tc.traces)
		if err != nil {
			t.Fatal(err)
		}
		m.Horizon = 30 * time.Minute
		m.Parallelism = 1
		_, errSeq := m.EvaluateBatch(tc.cfgs)
		var errPar error
		for trial := 0; trial < 10; trial++ {
			m.Parallelism = 8
			_, errPar = m.EvaluateBatch(tc.cfgs)
			if errSeq == nil || errPar == nil {
				t.Fatalf("%s: expected errors, got %v / %v", tc.name, errSeq, errPar)
			}
			if errSeq.Error() != errPar.Error() {
				t.Fatalf("%s: nondeterministic error: %q vs %q", tc.name, errSeq, errPar)
			}
		}
		if !strings.HasPrefix(errPar.Error(), tc.want) {
			t.Fatalf("%s: error %q, want prefix %q", tc.name, errPar, tc.want)
		}
		preds, _, _, errSearch := m.EvaluateSearch(tc.cfgs)
		if errSearch == nil || errSearch.Error() != errSeq.Error() {
			t.Fatalf("%s: EvaluateSearch returned (%v, %v), want EvaluateBatch's error %q", tc.name, preds, errSearch, errSeq)
		}
	}
}

// TestNilTraceGuard: a model whose Traces hold a nil entry, or none at
// all, fails with a descriptive error at any parallelism, and so does
// Sensitivity, instead of panicking in the predictor.
func TestNilTraceGuard(t *testing.T) {
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	for _, traces := range [][]*workload.Trace{nil, {nil, testTrace(t)}, {testTrace(t), nil, testTrace(t)}} {
		m, err := New(testTemplates(), traces)
		if err != nil {
			t.Fatal(err)
		}
		want := "nil trace"
		if len(traces) == 0 {
			want = "no sample traces"
		}
		for _, par := range []int{1, 8} {
			m.Parallelism = par
			if _, err := m.Evaluate(cfg); err == nil || !contains(err.Error(), want) {
				t.Fatalf("%d traces, parallelism %d: error %v does not mention %q", len(traces), par, err, want)
			}
		}
		if len(traces) >= 2 {
			if _, _, err := m.Sensitivity(cfg); err == nil || !contains(err.Error(), want) {
				t.Fatalf("%d traces: Sensitivity error %v does not mention %q", len(traces), err, want)
			}
		}
	}
}

// TestMixSeedNoAliasing locks in the FromProfiles seed fix: under the old
// linear stride (base + sample*7919), base 7919 at sample 0 aliased base 0
// at sample 1. The mixed seeds must be pairwise distinct over a dense grid
// of bases and samples.
func TestMixSeedNoAliasing(t *testing.T) {
	if mixSeed(0, 1) == mixSeed(7919, 0) {
		t.Fatal("stride aliasing survived the seed mix")
	}
	seen := make(map[int64][2]int64)
	for base := int64(-50); base < 50; base++ {
		for sample := 0; sample < 100; sample++ {
			s := mixSeed(base, sample)
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed collision: (base %d, sample %d) and (base %d, sample %d)",
					base, sample, prev[0], prev[1])
			}
			seen[s] = [2]int64{base, int64(sample)}
		}
	}
}

// TestFromProfilesSamplesDistinct checks end to end that consecutive
// samples of one model draw different workloads.
func TestFromProfilesSamplesDistinct(t *testing.T) {
	m, err := FromProfiles(testTemplates(),
		[]workload.TenantProfile{workload.BestEffort("A", 1)},
		time.Hour, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	t0, t1 := m.Traces[0], m.Traces[1]
	if len(t0.Jobs) == len(t1.Jobs) {
		same := true
		for i := range t0.Jobs {
			if t0.Jobs[i].Submit != t1.Jobs[i].Submit {
				same = false
				break
			}
		}
		if same {
			t.Fatal("samples 0 and 1 drew identical workloads")
		}
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// BenchmarkEvaluateBatch measures candidate scoring at several worker
// counts; the repository-level BenchmarkWhatIfBatch exercises the same path
// through the public API on the paper's workload.
func BenchmarkEvaluateBatch(b *testing.B) {
	tr, err := workload.Generate(
		[]workload.TenantProfile{workload.BestEffort("A", 2), workload.DeadlineDriven("B", 2)},
		workload.GenerateOptions{Horizon: 2 * time.Hour, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	m, err := FromTrace(testTemplates(), tr)
	if err != nil {
		b.Fatal(err)
	}
	var cfgs []cluster.Config
	for _, w := range []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32} {
		cfgs = append(cfgs, cluster.Config{
			TotalContainers: 30,
			Tenants: map[string]cluster.TenantConfig{
				"A": {Weight: w}, "B": {Weight: 1},
			},
		})
	}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			m.Parallelism = par
			for i := 0; i < b.N; i++ {
				if _, err := m.EvaluateBatch(cfgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
