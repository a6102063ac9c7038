package cluster

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"tempo/internal/linalg"
)

func TestConfigValidate(t *testing.T) {
	good := Config{TotalContainers: 10, Tenants: map[string]TenantConfig{
		"A": {Weight: 1, MinShare: 2, MaxShare: 8, SharePreemptTimeout: time.Minute},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{TotalContainers: 0},
		{TotalContainers: 10, Tenants: map[string]TenantConfig{"A": {Weight: 0}}},
		{TotalContainers: 10, Tenants: map[string]TenantConfig{"A": {Weight: 1, MinShare: -1}}},
		{TotalContainers: 10, Tenants: map[string]TenantConfig{"A": {Weight: 1, MinShare: 5, MaxShare: 3}}},
		{TotalContainers: 10, Tenants: map[string]TenantConfig{"A": {Weight: 1, SharePreemptTimeout: -time.Second}}},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Non-finite weights fail with the weight message, not a later
	// check's: NaN compares false against every bound.
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := Config{TotalContainers: 10, Tenants: map[string]TenantConfig{"A": {Weight: w}}}
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "weight") {
			t.Errorf("weight %v: error %v, want the weight message", w, err)
		}
	}
}

func TestConfigTenantFallback(t *testing.T) {
	c := Config{TotalContainers: 10, Tenants: map[string]TenantConfig{"A": {Weight: 5}}}
	if got := c.Tenant("A").Weight; got != 5 {
		t.Fatalf("Tenant(A).Weight = %v", got)
	}
	if got := c.Tenant("missing"); got != DefaultTenantConfig {
		t.Fatalf("fallback = %+v", got)
	}
}

func TestConfigCloneIndependent(t *testing.T) {
	c := Config{TotalContainers: 10, Tenants: map[string]TenantConfig{"A": {Weight: 1}}}
	d := c.Clone()
	d.Tenants["A"] = TenantConfig{Weight: 9}
	if c.Tenants["A"].Weight != 1 {
		t.Fatal("Clone shares tenant map")
	}
}

func TestSpaceDimAndOrder(t *testing.T) {
	s := DefaultSpace(100, []string{"B", "A"})
	if s.Dim() != 10 {
		t.Fatalf("Dim = %d, want 10", s.Dim())
	}
	if s.TenantNames[0] != "A" {
		t.Fatal("tenant names not sorted")
	}
}

func TestSpaceEncodeDecodeRoundTrip(t *testing.T) {
	s := DefaultSpace(100, []string{"A", "B"})
	cfg := Config{TotalContainers: 100, Tenants: map[string]TenantConfig{
		"A": {Weight: 2, MinShare: 10, MaxShare: 60, SharePreemptTimeout: 5 * time.Minute, MinSharePreemptTimeout: time.Minute},
		"B": {Weight: 0.5, MinShare: 0, MaxShare: 100, SharePreemptTimeout: time.Minute, MinSharePreemptTimeout: 30 * time.Second},
	}}
	x := s.Encode(cfg)
	back := s.Decode(x)
	for _, name := range []string{"A", "B"} {
		orig, got := cfg.Tenants[name], back.Tenants[name]
		if ratio := got.Weight / orig.Weight; ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s weight %v -> %v", name, orig.Weight, got.Weight)
		}
		if got.MinShare != orig.MinShare {
			t.Errorf("%s min share %d -> %d", name, orig.MinShare, got.MinShare)
		}
		if got.MaxShare != orig.MaxShare {
			t.Errorf("%s max share %d -> %d", name, orig.MaxShare, got.MaxShare)
		}
		dt := got.SharePreemptTimeout - orig.SharePreemptTimeout
		if dt < -time.Second || dt > time.Second {
			t.Errorf("%s share timeout %v -> %v", name, orig.SharePreemptTimeout, got.SharePreemptTimeout)
		}
	}
}

func TestSpaceDecodeAlwaysValid(t *testing.T) {
	s := DefaultSpace(50, []string{"A", "B", "C"})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := linalg.NewVector(s.Dim())
		for i := range x {
			x[i] = rng.Float64()*2 - 0.5 // intentionally out of [0,1] sometimes
		}
		cfg := s.Decode(x)
		return cfg.Validate() == nil && cfg.TotalContainers == 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceEncodeMissingTenantUsesDefault(t *testing.T) {
	s := DefaultSpace(10, []string{"A"})
	x := s.Encode(Config{TotalContainers: 10})
	cfg := s.Decode(x)
	if cfg.Tenants["A"].Weight <= 0 {
		t.Fatal("default encode produced invalid weight")
	}
}

func TestSpaceDecodePanicsOnWrongDim(t *testing.T) {
	s := DefaultSpace(10, []string{"A"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Decode(linalg.NewVector(3))
}

func TestNormalizeClamps(t *testing.T) {
	if normalize(5, 0, 10) != 0.5 {
		t.Fatal("normalize midpoint")
	}
	if normalize(-5, 0, 10) != 0 || normalize(15, 0, 10) != 1 {
		t.Fatal("normalize clamp")
	}
	if normalize(1, 5, 5) != 0 {
		t.Fatal("degenerate range")
	}
	if denormalize(-1, 0, 10) != 0 || denormalize(2, 0, 10) != 10 {
		t.Fatal("denormalize clamp")
	}
}

func TestTaskOutcomeString(t *testing.T) {
	want := map[TaskOutcome]string{
		TaskFinished:  "finished",
		TaskPreempted: "preempted",
		TaskFailed:    "failed",
		TaskKilled:    "killed",
		TaskTruncated: "truncated",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), s)
		}
	}
	if TaskOutcome(42).String() != "unknown" {
		t.Fatal("unknown outcome")
	}
}
