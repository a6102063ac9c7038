package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// bimodalTenant builds a trace whose "mixed" tenant has clearly separated
// small and huge jobs, plus an untouched "other" tenant.
func bimodalTenant(t *testing.T) *Trace {
	t.Helper()
	var jobs []JobSpec
	for i := 0; i < 20; i++ {
		jobs = append(jobs, NewMapReduceJob(
			jobID("small", i), "mixed", time.Duration(i)*time.Minute,
			[]time.Duration{10 * time.Second, 10 * time.Second}, nil))
	}
	for i := 0; i < 10; i++ {
		big := make([]time.Duration, 50)
		for j := range big {
			big[j] = 5 * time.Minute
		}
		jobs = append(jobs, NewMapReduceJob(
			jobID("big", i), "mixed", time.Duration(i)*7*time.Minute, big,
			[]time.Duration{20 * time.Minute}))
	}
	jobs = append(jobs, NewMapReduceJob("other-1", "other", 0, []time.Duration{time.Minute}, nil))
	tr := &Trace{Name: "bimodal", Horizon: 3 * time.Hour, Jobs: jobs}
	tr.Sort()
	return tr
}

func jobID(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func TestDecomposeSeparatesSizeClasses(t *testing.T) {
	tr := bimodalTenant(t)
	out, dec, err := Decompose(tr, "mixed", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.SubTenants) != 2 {
		t.Fatalf("sub-tenants = %v", dec.SubTenants)
	}
	small := out.ByTenant(SubTenantName("mixed", 0))
	big := out.ByTenant(SubTenantName("mixed", 1))
	if len(small) != 20 || len(big) != 10 {
		t.Fatalf("split = %d small / %d big, want 20/10", len(small), len(big))
	}
	for _, j := range small {
		if j.TotalWork() > time.Minute {
			t.Fatalf("small class contains big job %s (%v)", j.ID, j.TotalWork())
		}
	}
	// Other tenants untouched; job count preserved.
	if len(out.ByTenant("other")) != 1 {
		t.Fatal("other tenant disturbed")
	}
	if len(out.Jobs) != len(tr.Jobs) {
		t.Fatalf("job count changed: %d -> %d", len(tr.Jobs), len(out.Jobs))
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Centers sorted ascending.
	if dec.Centers[0] >= dec.Centers[1] {
		t.Fatalf("centers not ordered: %v", dec.Centers)
	}
}

func TestDecomposeValidation(t *testing.T) {
	tr := bimodalTenant(t)
	if _, _, err := Decompose(tr, "mixed", 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, _, err := Decompose(tr, "other", 2); err == nil {
		t.Fatal("too few jobs accepted")
	}
	if _, _, err := Decompose(tr, "missing", 2); err == nil {
		t.Fatal("unknown tenant accepted")
	}
}

func TestRecompose(t *testing.T) {
	if got := Recompose(SubTenantName("DEV", 3)); got != "DEV" {
		t.Fatalf("Recompose = %q", got)
	}
	if got := Recompose("plain"); got != "plain" {
		t.Fatalf("Recompose passthrough = %q", got)
	}
}

// decomposeProfiles derives one statistical profile per sub-queue from a
// decomposed trace, ready for the What-if Model. The horizon is taken from
// the trace.
func decomposeProfiles(decomposed *Trace, dec *Decomposition) ([]TenantProfile, error) {
	var out []TenantProfile
	for _, sub := range dec.SubTenants {
		if len(decomposed.ByTenant(sub)) == 0 {
			continue // a size class may be empty after re-windowing
		}
		p, err := Fit(decomposed, sub)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: decomposition of %q produced no populated sub-queues", dec.Tenant)
	}
	return out, nil
}

func TestDecomposeProfiles(t *testing.T) {
	tr := bimodalTenant(t)
	out, dec, err := Decompose(tr, "mixed", 2)
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := decomposeProfiles(out, dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	// The big class's mean map work must dominate the small class's.
	if profiles[1].MapSeconds.Mean() <= profiles[0].MapSeconds.Mean() {
		t.Fatalf("profile size ordering wrong: %v vs %v",
			profiles[0].MapSeconds.Mean(), profiles[1].MapSeconds.Mean())
	}
	// Profiles must generate valid traces.
	g, err := Generate(profiles, GenerateOptions{Horizon: time.Hour, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKMeans1DKnownClusters(t *testing.T) {
	points := []float64{1, 1.1, 0.9, 10, 10.2, 9.8}
	centers, assign := kmeans1D(points, 2)
	if centers[0] >= centers[1] {
		t.Fatalf("centers unsorted: %v", centers)
	}
	for i, p := range points {
		want := 0
		if p > 5 {
			want = 1
		}
		if assign[i] != want {
			t.Fatalf("point %v assigned to %d", p, assign[i])
		}
	}
}

// Property: k-means assignment is consistent — every point is assigned to
// its nearest center.
func TestPropertyKMeansNearestCenter(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(40)
		k := 2 + rng.Intn(3)
		points := make([]float64, n)
		for i := range points {
			points[i] = rng.NormFloat64() * 5
		}
		centers, assign := kmeans1D(points, k)
		for i, p := range points {
			d := abs64(p - centers[assign[i]])
			for _, c := range centers {
				if abs64(p-c) < d-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Property: decomposition preserves every job exactly once with only the
// tenant renamed.
func TestPropertyDecomposePreservesJobs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var jobs []JobSpec
		n := 6 + rng.Intn(30)
		for i := 0; i < n; i++ {
			dur := time.Duration(1+rng.Intn(600)) * time.Second
			jobs = append(jobs, NewMapReduceJob(jobID("j", i), "T",
				time.Duration(rng.Intn(3600))*time.Second,
				[]time.Duration{dur, dur}, nil))
		}
		tr := &Trace{Name: "p", Horizon: 2 * time.Hour, Jobs: jobs}
		tr.Sort()
		out, dec, err := Decompose(tr, "T", 2)
		if err != nil {
			return false
		}
		if len(out.Jobs) != len(tr.Jobs) {
			return false
		}
		seen := map[string]bool{}
		for i := range out.Jobs {
			j := &out.Jobs[i]
			if seen[j.ID] {
				return false
			}
			seen[j.ID] = true
			if Recompose(j.Tenant) != "T" {
				return false
			}
			if idx, ok := dec.Assignment[j.ID]; !ok || j.Tenant != dec.SubTenants[idx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// waitTimes returns per-job queueing delays (first task start − submit) of
// a tenant.
func waitTimes(jobSubmit map[string]time.Duration, firstStart map[string]time.Duration) []time.Duration {
	var out []time.Duration
	for id, s := range jobSubmit {
		if st, ok := firstStart[id]; ok && st >= s {
			out = append(out, st-s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestWaitTimes(t *testing.T) {
	submit := map[string]time.Duration{"a": 0, "b": 10, "c": 20}
	starts := map[string]time.Duration{"a": 5, "b": 10, "d": 99}
	waits := waitTimes(submit, starts)
	if len(waits) != 2 || waits[0] != 0 || waits[1] != 5 {
		t.Fatalf("waits = %v", waits)
	}
}
