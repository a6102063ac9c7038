package cluster

import (
	"math/rand"
	"testing"
	"time"

	"tempo/internal/workload"
)

// certTrace is two tenants competing for four containers: both wait from
// the start, so the run logs contended picks, and B's late job makes it
// wait again after A's queue has drained.
func certTrace() *workload.Trace {
	return mkTrace(
		job("a1", "A", 0, 6, time.Minute),
		job("b1", "B", 0, 6, time.Minute),
		job("b2", "B", 30*time.Second, 2, 10*time.Second),
	)
}

// certified runs the trace under cfg and returns the run's certificate
// and its schedule, Detached so the next run leaves it as it is.
func certified(t *testing.T, sm *Sim, tr *workload.Trace, cfg Config, opts Options) (*Certificate, *Schedule) {
	t.Helper()
	sched, err := sm.RunInto(tr, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	cert := sm.Certificate()
	sm.Detach()
	return cert, sched
}

// TestCertificateRules checks each of Covers' rules on both sides of its
// boundary, and the runs that earn no certificate. Every configuration
// the certificate covers is simulated: its schedule must Equal the
// certified run's.
func TestCertificateRules(t *testing.T) {
	tr := certTrace()
	base := cfg2(4, TenantConfig{Weight: 1}, TenantConfig{Weight: 1})
	sm := NewSim()
	cert, want := certified(t, sm, tr, base, Options{})
	if cert == nil {
		t.Fatal("a noise-free run without preemption timeouts earned no certificate")
	}
	if len(cert.log) == 0 {
		t.Fatal("two tenants waiting from the start logged no contended pick")
	}
	a, b := cert.tenants[0], cert.tenants[1]
	if a.name != "A" || b.name != "B" || a.peak < 2 || a.wait <= 0 {
		t.Fatalf("tenants %+v %+v: want A then B, A's peak at least 2 and a positive wait", a, b)
	}
	with := func(tune func(a, b *TenantConfig)) Config {
		cfg := base.Clone()
		ta, tb := cfg.Tenants["A"], cfg.Tenants["B"]
		tune(&ta, &tb)
		cfg.Tenants["A"], cfg.Tenants["B"] = ta, tb
		return cfg
	}
	for _, row := range []struct {
		name   string
		cfg    Config
		covers bool
	}{
		{"own configuration", base, true},
		{"weights scaled", with(func(a, b *TenantConfig) { a.Weight, b.Weight = 2, 2 }), true},
		{"max share at the peak", with(func(ta, _ *TenantConfig) { ta.MaxShare = a.peak }), true},
		{"timeouts above the span", with(func(ta, _ *TenantConfig) {
			ta.SharePreemptTimeout, ta.MinSharePreemptTimeout = a.wait+1, a.wait+1
		}), true},
		{"different capacity", Config{TotalContainers: 5, Tenants: base.Tenants}, false},
		{"max share below the peak", with(func(ta, _ *TenantConfig) { ta.MaxShare = a.peak - 1 }), false},
		{"share timeout at the span", with(func(ta, _ *TenantConfig) { ta.SharePreemptTimeout = a.wait }), false},
		{"min-share timeout at the span", with(func(ta, _ *TenantConfig) {
			ta.MinShare, ta.MinSharePreemptTimeout = 1, a.wait
		}), false},
		{"min-share timeout at the span, no min share", with(func(ta, _ *TenantConfig) { ta.MinSharePreemptTimeout = a.wait }), true},
		// Equal weights tie at the first pick and A, first in name order,
		// takes it; a heavier B wins the tie instead.
		{"a flipped pick", with(func(_, tb *TenantConfig) { tb.Weight = 3 }), false},
	} {
		if got := cert.Covers(row.cfg); got != row.covers {
			t.Errorf("%s: Covers = %t, want %t", row.name, got, row.covers)
			continue
		}
		if row.covers {
			if _, got := certified(t, sm, tr, row.cfg, Options{}); !got.Equal(want) {
				t.Errorf("%s: covered, but its schedule differs from the certified one", row.name)
			}
		}
	}

	// Runs that earn no certificate.
	starved := with(func(_, tb *TenantConfig) { tb.MinShare, tb.MinSharePreemptTimeout = 3, time.Second })
	if c, _ := certified(t, sm, tr, starved, Options{}); c != nil {
		t.Error("a run in which a preemption check fired earned a certificate")
	}
	if c, _ := certified(t, sm, tr, base, Options{Noise: &NoiseModel{DurationSigma: 0.1, Seed: 1}}); c != nil {
		t.Error("a noisy run earned a certificate")
	}
	if _, err := sm.RunInto(tr, Config{}, Options{}); err == nil || sm.Certificate() != nil {
		t.Errorf("a failed run (err %v) left a certificate", err)
	}
	if _, err := sm.RunInto(tr, base, Options{}); err != nil {
		t.Fatal(err)
	}
	sm.Detach()
	if sm.Certificate() != nil {
		t.Error("a certificate after Detach")
	}
}

// checkCertificate runs a random scenario (randomScenario's generator)
// under a configuration without short timeouts, then runs every variant
// of it that the run's certificate covers: each must reproduce the
// certified schedule. contended sets a capacity below the trace's demand,
// otherwise nothing ever waits; horizon cuts the runs short. It returns
// how many variants the certificate covered and refused.
func checkCertificate(t *testing.T, seed int64, contended, horizon bool) (covered, refused int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr, cfg := randomScenario(rng)
	if contended {
		cfg.TotalContainers = 1 + rng.Intn(4)
	} else {
		cfg.TotalContainers = tr.TaskCount() + 1
	}
	noTimeouts := rng.Intn(2) == 0
	for name, tc := range cfg.Tenants {
		if noTimeouts {
			tc.SharePreemptTimeout, tc.MinSharePreemptTimeout = 0, 0
		}
		if tc.MinShare > cfg.TotalContainers {
			tc.MinShare = cfg.TotalContainers
		}
		if tc.MaxShare > 0 && tc.MaxShare < tc.MinShare {
			tc.MaxShare = tc.MinShare
		}
		cfg.Tenants[name] = tc
	}
	var opts Options
	if horizon {
		opts.Horizon = 8 * time.Minute
	}
	sm := NewSim()
	cert, want := certified(t, sm, tr, cfg, opts)
	if cert == nil {
		return 0, 0
	}
	if noTimeouts && !cert.Covers(cfg) {
		t.Fatalf("seed %d: a certificate refuses its own run's configuration, which sets no timeout", seed)
	}
	for v := 0; v < 8; v++ {
		variant := cfg.Clone()
		if rng.Intn(8) == 0 {
			variant.TotalContainers++
		}
		for _, name := range []string{"A", "B", "C"} { // randomScenario's tenants, in a fixed order
			tc, ok := variant.Tenants[name]
			if !ok || rng.Intn(2) == 0 {
				continue
			}
			switch rng.Intn(5) {
			case 0:
				tc.Weight = 0.25 + rng.Float64()*4
			case 1:
				tc.MinShare = rng.Intn(variant.TotalContainers + 1)
			case 2:
				tc.MaxShare = rng.Intn(variant.TotalContainers + 2)
			case 3:
				tc.SharePreemptTimeout = time.Duration(rng.Intn(3)) * time.Duration(1+rng.Intn(600)) * time.Second
			case 4:
				tc.MinSharePreemptTimeout = time.Duration(rng.Intn(3)) * time.Duration(1+rng.Intn(600)) * time.Second
			}
			if tc.MaxShare > 0 && tc.MinShare > tc.MaxShare {
				tc.MinShare = tc.MaxShare
			}
			variant.Tenants[name] = tc
		}
		if !cert.Covers(variant) {
			refused++
			continue
		}
		covered++
		if _, got := certified(t, sm, tr, variant, opts); !got.Equal(want) {
			t.Fatalf("seed %d: the certificate covers %+v, whose schedule differs from the certified run's %+v", seed, variant, cfg)
		}
	}
	return covered, refused
}

// TestCertificateSoundness runs checkCertificate over seeds in each mode,
// and requires each mode to have both covered and refused variants, so
// neither side of Covers goes untested.
func TestCertificateSoundness(t *testing.T) {
	for _, mode := range []struct{ contended, horizon bool }{{false, false}, {true, false}, {true, true}} {
		var covered, refused int
		for seed := int64(0); seed < 200; seed++ {
			c, r := checkCertificate(t, seed, mode.contended, mode.horizon)
			covered, refused = covered+c, refused+r
		}
		t.Logf("contended=%t horizon=%t: %d variants covered, %d refused", mode.contended, mode.horizon, covered, refused)
		if covered == 0 || refused == 0 {
			t.Errorf("contended=%t horizon=%t: %d covered, %d refused: want both", mode.contended, mode.horizon, covered, refused)
		}
	}
}

// FuzzCertificateSound is TestCertificateSoundness over fuzzed seeds.
func FuzzCertificateSound(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, seed%2 == 0, seed%3 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, contended, horizon bool) {
		checkCertificate(t, seed, contended, horizon)
	})
}
