// Package cluster implements the multi-tenant Resource Manager substrate
// Tempo tunes: a container-based shared-nothing cluster with per-tenant
// queues governed by resource shares, min/max resource limits, and
// two-level kill-based preemption timeouts (§3.2 of the paper).
//
// The same event-driven scheduler serves as both the "production cluster"
// (with a seeded noise model injecting duration jitter, task failures, and
// user job kills) and Tempo's fast Schedule Predictor (noise disabled).
// Prediction advances state only at task submission, finish, and potential
// preemption instants — the time-warp style of §7.2.
package cluster

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tempo/internal/linalg"
)

// TenantConfig is the per-tenant slice of the RM configuration space
// described in §3.2.
type TenantConfig struct {
	// Weight is the tenant's resource share relative to other tenants.
	Weight float64 `json:"weight"`
	// MinShare is the minimum number of containers the tenant is entitled
	// to whenever it has demand.
	MinShare int `json:"min_share"`
	// MaxShare caps the tenant's containers; 0 means unlimited.
	MaxShare int `json:"max_share"`
	// SharePreemptTimeout is how long the tenant tolerates running below
	// its fair share (while having pending tasks) before the RM kills
	// recently launched tasks of over-share tenants. Zero disables this
	// preemption level.
	SharePreemptTimeout time.Duration `json:"share_preempt_timeout"`
	// MinSharePreemptTimeout is the more critical level: how long the
	// tenant tolerates running below MinShare. Zero disables it.
	MinSharePreemptTimeout time.Duration `json:"min_share_preempt_timeout"`
}

// Config is a complete RM configuration: the cluster capacity and every
// tenant's parameters. This is the vector x that Tempo optimizes.
type Config struct {
	// TotalContainers is the number of containers the RM can allocate at
	// any instant.
	TotalContainers int `json:"total_containers"`
	// Tenants maps tenant (queue) name to its parameters. Tenants absent
	// from the map run with DefaultTenantConfig.
	Tenants map[string]TenantConfig `json:"tenants"`
}

// DefaultTenantConfig is used for tenants the configuration does not name:
// weight 1, no floors or ceilings, preemption disabled.
var DefaultTenantConfig = TenantConfig{Weight: 1}

// Tenant returns the configuration for the named tenant, falling back to
// DefaultTenantConfig.
func (c *Config) Tenant(name string) TenantConfig {
	if tc, ok := c.Tenants[name]; ok {
		return tc
	}
	return DefaultTenantConfig
}

// Clone returns a deep copy of the configuration.
func (c Config) Clone() Config {
	out := c
	out.Tenants = make(map[string]TenantConfig, len(c.Tenants))
	for k, v := range c.Tenants {
		out.Tenants[k] = v
	}
	return out
}

// Equal reports whether two configurations are identical: same capacity
// and the same explicit tenant set with equal parameters. It is the exact
// check behind Fingerprint matches in the what-if search cache.
func (c Config) Equal(o Config) bool {
	if c.TotalContainers != o.TotalContainers || len(c.Tenants) != len(o.Tenants) {
		return false
	}
	// No early exit: the full scan keeps the predicate trivially
	// independent of map iteration order (determinism lint scope).
	eq := true
	for k, v := range c.Tenants {
		if ov, ok := o.Tenants[k]; !ok || v != ov {
			eq = false
		}
	}
	return eq
}

// Fingerprint returns a 64-bit digest of the configuration. Per-tenant
// digests are XOR-combined so the result is independent of map
// iteration order. Equal fingerprints are almost certainly equal configs;
// callers that must be exact (the cross-tick search cache) verify with
// Equal before trusting a match.
func (c Config) Fingerprint() uint64 {
	h := fnvUint64(fnvOffset64, uint64(c.TotalContainers))
	h = fnvUint64(h, uint64(len(c.Tenants)))
	var mix uint64
	for name, tc := range c.Tenants {
		th := fnvString(fnvOffset64, name)
		th = fnvUint64(th, math.Float64bits(tc.Weight))
		th = fnvUint64(th, uint64(tc.MinShare))
		th = fnvUint64(th, uint64(tc.MaxShare))
		th = fnvUint64(th, uint64(tc.SharePreemptTimeout))
		th = fnvUint64(th, uint64(tc.MinSharePreemptTimeout))
		mix ^= th
	}
	return fnvUint64(h, mix)
}

// Validate checks capacity and per-tenant parameter sanity.
func (c *Config) Validate() error {
	if c.TotalContainers <= 0 {
		return fmt.Errorf("cluster: non-positive capacity %d", c.TotalContainers)
	}
	// Map iteration order is random; report the lexically smallest
	// offending tenant so the same bad config always yields the same
	// error, without sorting (Validate runs on every RunInto).
	bad := ""
	for name, tc := range c.Tenants {
		if bad != "" && name >= bad {
			continue
		}
		if !validWeight(tc.Weight) || tc.MinShare < 0 || tc.MaxShare < 0 ||
			(tc.MaxShare > 0 && tc.MinShare > tc.MaxShare) ||
			tc.SharePreemptTimeout < 0 || tc.MinSharePreemptTimeout < 0 {
			bad = name
		}
	}
	if bad != "" {
		tc := c.Tenants[bad]
		switch {
		case !validWeight(tc.Weight):
			return fmt.Errorf("cluster: tenant %s has non-positive or non-finite weight %g", bad, tc.Weight)
		case tc.MinShare < 0 || tc.MaxShare < 0:
			return fmt.Errorf("cluster: tenant %s has negative share limit", bad)
		case tc.MaxShare > 0 && tc.MinShare > tc.MaxShare:
			return fmt.Errorf("cluster: tenant %s min share %d exceeds max share %d", bad, tc.MinShare, tc.MaxShare)
		default:
			return fmt.Errorf("cluster: tenant %s has negative preemption timeout", bad)
		}
	}
	return nil
}

// validWeight reports whether w is positive and finite; NaN fails both.
func validWeight(w float64) bool { return w > 0 && w <= math.MaxFloat64 }

// WithSubTenants returns a copy of the configuration in which the parent
// tenant's entry is replaced by one entry per sub-queue. The parent's
// weight and limits are split evenly — the hierarchical-tenant workaround
// §10 describes for attaching fine-grained SLOs to workloads of a single
// tenant (as in the Hadoop Capacity Scheduler). Preemption timeouts are
// inherited unchanged.
func (c Config) WithSubTenants(parent string, subs []string) Config {
	out := c.Clone()
	if len(subs) == 0 {
		return out
	}
	pc := out.Tenant(parent)
	delete(out.Tenants, parent)
	n := len(subs)
	for i, sub := range subs {
		tc := pc
		tc.Weight = pc.Weight / float64(n)
		// Distribute remainder containers to the first sub-queues so the
		// totals are preserved.
		tc.MinShare = pc.MinShare / n
		if i < pc.MinShare%n {
			tc.MinShare++
		}
		if pc.MaxShare > 0 {
			tc.MaxShare = pc.MaxShare / n
			if tc.MaxShare < 1 {
				tc.MaxShare = 1
			}
			if tc.MinShare > tc.MaxShare {
				tc.MinShare = tc.MaxShare
			}
		}
		out.Tenants[sub] = tc
	}
	return out
}

// Space describes the box-constrained, normalized configuration space the
// optimizer explores. Each tenant contributes five coordinates — weight,
// min share, max share, share-level preemption timeout, min-share-level
// preemption timeout — each mapped affinely to [0, 1]. This realizes the
// paper's "normalized ℓ2-norm" trust-region metric: distances in the unit
// cube are comparable across parameters with wildly different units.
type Space struct {
	// Capacity is the cluster size every decoded Config carries.
	Capacity int
	// TenantNames fixes the coordinate order; must be sorted and nonempty.
	TenantNames []string
	// WeightRange bounds tenant weights.
	WeightRange [2]float64
	// MinShareFrac and MaxShareFrac bound the min/max limits as fractions
	// of capacity.
	MinShareFrac [2]float64
	MaxShareFrac [2]float64
	// ShareTimeoutRange and MinTimeoutRange bound the two preemption
	// timeouts. The upper end should exceed the workload's typical task
	// duration so "effectively disabled" is representable.
	ShareTimeoutRange [2]time.Duration
	MinTimeoutRange   [2]time.Duration
}

// paramsPerTenant is the number of tunable RM parameters per tenant (§3.2:
// share, two limits, two preemption timeouts).
const paramsPerTenant = 5

// DefaultSpace returns a Space with sensible bounds for the given cluster
// capacity and tenants. Tenant names are sorted for coordinate stability.
func DefaultSpace(capacity int, tenants []string) *Space {
	names := append([]string(nil), tenants...)
	sort.Strings(names)
	return &Space{
		Capacity:          capacity,
		TenantNames:       names,
		WeightRange:       [2]float64{0.1, 10},
		MinShareFrac:      [2]float64{0, 0.5},
		MaxShareFrac:      [2]float64{0.1, 1},
		ShareTimeoutRange: [2]time.Duration{15 * time.Second, 30 * time.Minute},
		MinTimeoutRange:   [2]time.Duration{5 * time.Second, 15 * time.Minute},
	}
}

// Dim returns the dimensionality of the normalized space.
func (s *Space) Dim() int { return paramsPerTenant * len(s.TenantNames) }

// Encode maps a Config into the normalized [0,1]^Dim cube. Tenants missing
// from cfg encode as DefaultTenantConfig. Values outside the bounds clamp.
func (s *Space) Encode(cfg Config) linalg.Vector {
	x := linalg.NewVector(s.Dim())
	for i, name := range s.TenantNames {
		tc := cfg.Tenant(name)
		base := i * paramsPerTenant
		x[base+0] = normalize(tc.Weight, s.WeightRange[0], s.WeightRange[1])
		x[base+1] = normalize(float64(tc.MinShare), s.MinShareFrac[0]*float64(s.Capacity), s.MinShareFrac[1]*float64(s.Capacity))
		maxShare := tc.MaxShare
		if maxShare == 0 {
			maxShare = s.Capacity
		}
		x[base+2] = normalize(float64(maxShare), s.MaxShareFrac[0]*float64(s.Capacity), s.MaxShareFrac[1]*float64(s.Capacity))
		x[base+3] = normalize(float64(tc.SharePreemptTimeout), float64(s.ShareTimeoutRange[0]), float64(s.ShareTimeoutRange[1]))
		x[base+4] = normalize(float64(tc.MinSharePreemptTimeout), float64(s.MinTimeoutRange[0]), float64(s.MinTimeoutRange[1]))
	}
	return x
}

// Decode maps a point of the normalized cube back to a valid Config.
// Coordinates are clamped to [0,1] first; MinShare is clamped below
// MaxShare so every decoded configuration validates.
func (s *Space) Decode(x linalg.Vector) Config {
	if len(x) != s.Dim() {
		panic(fmt.Sprintf("cluster: decoding vector of length %d into space of dim %d", len(x), s.Dim()))
	}
	cfg := Config{TotalContainers: s.Capacity, Tenants: make(map[string]TenantConfig, len(s.TenantNames))}
	for i, name := range s.TenantNames {
		base := i * paramsPerTenant
		tc := TenantConfig{
			Weight:                 denormalize(x[base+0], s.WeightRange[0], s.WeightRange[1]),
			MinShare:               int(math.Round(denormalize(x[base+1], s.MinShareFrac[0]*float64(s.Capacity), s.MinShareFrac[1]*float64(s.Capacity)))),
			MaxShare:               int(math.Round(denormalize(x[base+2], s.MaxShareFrac[0]*float64(s.Capacity), s.MaxShareFrac[1]*float64(s.Capacity)))),
			SharePreemptTimeout:    time.Duration(denormalize(x[base+3], float64(s.ShareTimeoutRange[0]), float64(s.ShareTimeoutRange[1]))),
			MinSharePreemptTimeout: time.Duration(denormalize(x[base+4], float64(s.MinTimeoutRange[0]), float64(s.MinTimeoutRange[1]))),
		}
		if tc.MaxShare < 1 {
			tc.MaxShare = 1
		}
		if tc.MinShare > tc.MaxShare {
			tc.MinShare = tc.MaxShare
		}
		if tc.MinShare < 0 {
			tc.MinShare = 0
		}
		cfg.Tenants[name] = tc
	}
	return cfg
}

func normalize(v, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	u := (v - lo) / (hi - lo)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

func denormalize(u, lo, hi float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return lo + u*(hi-lo)
}
