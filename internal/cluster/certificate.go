package cluster

import (
	"slices"
	"time"
)

// A Certificate proves, for one noise-free run of a trace, which other
// configurations would schedule that trace exactly alike. The scheduler
// decides only at picks: which waiting tenant takes a free container.
// Everything else a run does follows from the trace and the picks made
// so far, with one exception, a preemption check that fires; a run in
// which one fired earns no certificate. Of a run without one, the
// certificate keeps each tenant's peak running count, each tenant's
// longest span with a non-empty pending deque, and a log of every
// contended pick: one with two or more tenants waiting, or one at which
// no waiting tenant could take a container. Each logged pick holds the
// waiting tenants' index, running count and demand, and the outcome.
//
// Covers admits a configuration under which, by induction over the
// run's events, every event makes the same decision:
//
//   - The capacity is the same, so free containers and picks line up.
//   - Every max share it sets is at least the tenant's peak, so a lone
//     waiting tenant the run picked may still take a container.
//   - Every non-zero preemption timeout exceeds the tenant's longest
//     pending span. A starvation window lies inside one pending span
//     and closes when it ends, so no check comes due while one is open.
//     Fair shares and min shares then only move windows, never picks.
//     A min-share timeout of a tenant without a min share counts as
//     zero: the tenant is never below its min-share level, so that
//     window never opens.
//   - Every logged pick, replayed through the scheduler's own pick
//     comparison (rankTenant and pickRank.before), has the same outcome.
//
// Under such a configuration the run's schedule and QS vector
// are the certified run's. A certificate speaks for the trace and the
// Options (the horizon) of its run only. It owns its storage and is
// never written after Sim.Certificate returns it, so Covers is safe for
// concurrent use.
type Certificate struct {
	capacity int
	tenants  []certTenant
	// log is the pick log, flat: per logged pick, the number of waiting
	// tenants and the scheduler index picked (-1 for none), then per
	// waiting tenant, in index order, its index, running count and demand.
	log []int32
}

// certTenant is one tenant's part of a certificate, by scheduler index.
type certTenant struct {
	name string
	peak int
	wait time.Duration
}

// Certificate returns the certificate of the last RunInto, or nil when
// it earned none: a noisy run, a run in which a preemption check fired,
// or a run that ended with work still waiting and no horizon to cut it.
// It also returns nil after a failed RunInto or a Detach. The result
// owns copies of the Sim's logs.
func (sm *Sim) Certificate() *Certificate {
	s := &sm.s
	if s.schedule == nil || !s.certOK || s.waiting > 0 && s.opts.Horizon <= 0 {
		return nil
	}
	end := s.engine.Now()
	c := &Certificate{
		capacity: s.capacity,
		tenants:  make([]certTenant, len(s.tenants)),
		log:      exactCopy(s.certLog),
	}
	for i := range s.tenants {
		ts := &s.tenants[i]
		wait := ts.longestWait
		if ts.pending.len() > 0 {
			wait = max(wait, end-ts.waitFrom)
		}
		c.tenants[i] = certTenant{name: s.names[i], peak: ts.peak, wait: wait}
	}
	return c
}

// Covers reports whether running the certificate's trace under cfg, with
// the certified run's options, would produce the certified schedule (see
// Certificate for the rules).
func (c *Certificate) Covers(cfg Config) bool {
	if cfg.TotalContainers != c.capacity {
		return false
	}
	var buf [16]TenantConfig // no allocation for up to 16 tenants
	tcs := slices.Grow(buf[:0], len(c.tenants))[:len(c.tenants)]
	for i := range c.tenants {
		ct := &c.tenants[i]
		tc := cfg.Tenant(ct.name)
		if tc.MaxShare > 0 && tc.MaxShare < ct.peak ||
			tc.SharePreemptTimeout > 0 && tc.SharePreemptTimeout <= ct.wait ||
			tc.MinShare > 0 && tc.MinSharePreemptTimeout > 0 && tc.MinSharePreemptTimeout <= ct.wait {
			return false
		}
		tcs[i] = tc
	}
	for log := c.log; len(log) > 0; {
		n, picked := int(log[0]), log[1]
		best := int32(-1)
		var bestRank pickRank
		for k := 0; k < n; k++ {
			i, running, demand := log[2+3*k], int(log[3+3*k]), int(log[4+3*k])
			if r, ok := rankTenant(&tcs[i], running, demand, c.capacity); ok && (best < 0 || r.before(bestRank)) {
				best, bestRank = i, r
			}
		}
		if best != picked {
			return false
		}
		log = log[2+3*n:]
	}
	return true
}
