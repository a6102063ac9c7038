package whatif

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/workload"
)

// One scoring engine. Evaluate, EvaluateBatch, Sensitivity and
// EvaluateSearch all resolve their (configuration, sample) pairs through
// Model.score, working against a searchState that holds two
// exact-verified tiers per sample:
//
//   - a config tier keyed by configuration fingerprint (verified with
//     cluster.Config.Equal): the built-in predictor is a pure function of
//     (trace, configuration, horizon), so an identical configuration
//     scored against an identical trace reuses the whole QS vector with
//     no simulation at all — this is what makes warm-starting the
//     incumbent free;
//   - a schedule tier keyed by the predicted schedule's digest
//     (cluster.Sim.AppendDigest: pointer-free, lossless relative to the
//     sample's trace, compared word for word): small configuration deltas
//     frequently leave the predicted schedule unchanged (a weight tweak
//     beyond the contention point, a max-share above demand), and distinct
//     configurations that predict identical schedules share one QS
//     derivation.
//
// Both serve the built-in predictor only; a custom Predictor is scored
// for every pair. Neither tier subsumes the other — a config hit skips
// the simulation, a schedule hit only the QS derivation — and both reuse
// values only after an exact equality check, so reuse is bit-identical to
// recomputation no matter which worker populated an entry first.
//
// The entry points differ only in the state's lifetime. EvaluateSearch
// passes the model's own state, which remembers across ticks: the
// controller scores near-identical candidate sets tick after tick — the
// incumbent is always re-scored, proposals cluster around it, and in both
// generator modes the sample traces are identical across ticks (replay
// shares one trace pointer; the profile generator draws each sample once
// and hands the same pointer back). The others pass a fresh state
// that dies with the call. Stale state is impossible by construction:
// every call re-reconciles each sample's trace identity (pointer fast
// path, content comparison otherwise) and drops that sample's entries
// when the trace changed, and an epoch guard drops everything when the
// model's shape (template count, horizon, sample count) changes.

// maxSearchConfigPerSample caps the config tier. 64 covers many ticks of
// candidate churn around the incumbent; the tier is FIFO, so a
// wandering optimizer evicts its oldest points first.
const maxSearchConfigPerSample = 64

// maxSchedPerSample caps the schedule tier: each entry pins a schedule's
// digest (four words per task) for the state's lifetime. PALD
// batches score a handful of candidates, so a single call never reaches
// the cap in the control loop; like the config tier it evicts FIFO.
const maxSchedPerSample = 32

// schedCacheEntry is one schedule-tier record: a schedule's digest (an
// exact-size copy it owns), its hash, and the QS vector derived from it.
type schedCacheEntry struct {
	fp     uint64
	digest []uint64
	vals   []float64
}

// cfgCacheEntry is one config-tier record: the exact configuration (a
// clone, so later caller mutations cannot corrupt the key) and its
// per-sample QS vector.
type cfgCacheEntry struct {
	fp   uint64
	cfg  cluster.Config
	vals []float64
}

// searchSample is one sample's slice of the search state.
type searchSample struct {
	trace *workload.Trace
	sched []schedCacheEntry
	cfgs  []cfgCacheEntry
}

// searchState is what the scoring engine works against: both tiers, per
// sample. The mutex guards slice headers only; entries are immutable once
// appended, and eviction moves the survivors to a fresh array instead of
// shifting them in place (see room), so a reader's unlocked snapshot is
// never written through.
type searchState struct {
	mu        sync.Mutex
	templates int
	horizon   time.Duration
	nsamples  int
	samples   []searchSample
}

// reconcile aligns the state with this call's model shape and sample
// traces, invalidating exactly what changed: everything on a shape
// (epoch) change, one sample's entries when that sample's trace content
// changed. Trace identity is the pointer when generators hand back the
// same trace (FromTrace and FromProfiles both do) and a content
// comparison otherwise (a caller's generator that redraws an equal trace
// each call keeps its entries; a regenerated different trace fails the
// comparison and drops them).
func (st *searchState) reconcile(templates int, horizon time.Duration, traces []*workload.Trace) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.templates != templates || st.horizon != horizon || st.nsamples != len(traces) {
		st.templates, st.horizon, st.nsamples = templates, horizon, len(traces)
		st.samples = make([]searchSample, len(traces))
	}
	for s, tr := range traces {
		cur := &st.samples[s]
		if cur.trace == tr {
			continue
		}
		if cur.trace != nil && cur.trace.Equal(tr) {
			cur.trace = tr
			continue
		}
		*cur = searchSample{trace: tr}
	}
}

// lookup returns the QS vector already derived from a schedule with this
// digest on this sample, or nil. The O(records) exact comparison runs
// outside the lock — entries are immutable once stored, so only the slice
// snapshot needs the mutex, and workers comparing large digests do not
// serialize each other.
func (st *searchState) lookup(sample int, fp uint64, digest []uint64) []float64 {
	st.mu.Lock()
	entries := st.samples[sample].sched
	st.mu.Unlock()
	for _, e := range entries {
		if e.fp == fp && slices.Equal(e.digest, digest) {
			return e.vals
		}
	}
	return nil
}

// room returns tier with a free slot at its end, evicting the oldest entry
// of a full one. The tier's array has exactly limit slots from the first
// store on, and eviction copies the survivors into a fresh one: advancing
// the slice base instead would keep every evicted entry (a digest, in the
// schedule tier) reachable from the old array until the next
// reallocation, and clearing the slot would write through a reader's
// unlocked snapshot.
func room[E any](tier []E, limit int) []E {
	switch {
	case tier == nil:
		return make([]E, 0, limit)
	case len(tier) < limit:
		return tier
	}
	return append(make([]E, 0, limit), tier[1:]...)
}

// store pins the (digest, vector) pair in the schedule tier, evicting
// FIFO at capacity. The digest must be the caller's own copy, never a
// worker's buffer: from here on other workers read it without a lock.
func (st *searchState) store(sample int, fp uint64, digest []uint64, vals []float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sm := &st.samples[sample]
	sm.sched = append(room(sm.sched, maxSchedPerSample), schedCacheEntry{fp: fp, digest: digest, vals: vals})
}

// lookupConfig returns the cached per-sample QS vector for an exactly
// equal configuration, or nil. Called serially by score, never from
// workers.
func (st *searchState) lookupConfig(sample int, fp uint64, cfg *cluster.Config) []float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range st.samples[sample].cfgs {
		if e.fp == fp && e.cfg.Equal(*cfg) {
			return e.vals
		}
	}
	return nil
}

// storeConfig records a freshly scored (configuration, sample) vector,
// evicting FIFO at capacity.
func (st *searchState) storeConfig(sample int, fp uint64, cfg cluster.Config, vals []float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sm := &st.samples[sample]
	sm.cfgs = append(room(sm.cfgs, maxSearchConfigPerSample), cfgCacheEntry{fp: fp, cfg: cfg.Clone(), vals: vals})
}

// EvaluateSearch scores candidate configurations like EvaluateBatch —
// row i of preds is cfgs[i] averaged over the model's samples, and every
// prediction is bit-identical to what EvaluateBatch would produce — but
// against the model's cross-tick state, so a configuration scored on an
// earlier call is served from the config tier without simulating.
//
// fresh[i] counts the samples whose predictor actually ran for cfgs[i];
// reused[i] counts config-tier hits (no simulation at all). A warm-
// started candidate has fresh[i] == 0.
//
// The model's search state is only touched by this method. Calls on the
// same Model must not be concurrent (the control loop serializes
// decisions); EvaluateBatch remains stateless and safe alongside.
func (m *Model) EvaluateSearch(cfgs []cluster.Config) (preds [][]float64, fresh, reused []int, err error) {
	if m.search == nil {
		m.search = &searchState{}
	}
	return m.evaluate(m.search, cfgs)
}

// evaluate scores cfgs over the model's sample count against st and
// averages each configuration's rows in sample order.
func (m *Model) evaluate(st *searchState, cfgs []cluster.Config) (preds [][]float64, fresh, reused []int, err error) {
	samples := m.Samples
	if samples < 1 {
		samples = 1
	}
	vals, fresh, reused, err := m.score(st, cfgs, samples)
	if err != nil {
		return nil, nil, nil, err
	}
	preds = make([][]float64, len(cfgs))
	for c := range cfgs {
		preds[c] = averageSamples(vals, c, samples, len(m.Templates))
	}
	return preds, fresh, reused, nil
}

// score is the only place a (configuration, sample) pair is resolved. It
// returns the per-sample QS vectors indexed by cfg*samples + sample, with
// fresh[c] counting the pairs of cfgs[c] whose predictor ran and
// reused[c] its config-tier hits.
//
// The S sample traces are generated exactly once, up front, and shared
// (read-only) by all C candidates. Errors are deterministic and
// independent of worker timing: generation errors first (lowest sample
// wins, attributed to config 0), then the lowest-indexed invalid
// configuration — before any lookup, so a cache hit cannot hide it —
// then prediction errors (lowest flat pair index).
//
//tempo:hot
func (m *Model) score(st *searchState, cfgs []cluster.Config, samples int) (vals [][]float64, fresh, reused []int, err error) {
	fresh = make([]int, len(cfgs))
	reused = make([]int, len(cfgs))
	vals = make([][]float64, len(cfgs)*samples)
	if len(cfgs) == 0 {
		return vals, fresh, reused, nil
	}
	wrap := func(c int, err error) error {
		if len(cfgs) > 1 {
			//tempolint:ignore allocdiscipline cold error exit, runs at most once per call
			return fmt.Errorf("whatif: config %d: %w", c, err)
		}
		//tempolint:ignore allocdiscipline cold error exit, runs at most once per call
		return fmt.Errorf("whatif: %w", err)
	}
	traces, err := m.genSamples(samples, workersFor(m.Parallelism, samples))
	if err != nil {
		return nil, nil, nil, wrap(0, err)
	}
	for c := range cfgs {
		if err := cfgs[c].Validate(); err != nil {
			return nil, nil, nil, wrap(c, err)
		}
	}
	st.reconcile(len(m.Templates), m.Horizon, traces)

	// Both tiers only apply to the built-in predictor, whose output is a
	// pure function of (trace, configuration, horizon) and whose Sim
	// digests its schedules; a custom Predict is an opaque function we
	// must call, and score, per (config, sample) pair.
	cacheable := m.Predict == nil
	fps := make([]uint64, len(cfgs))
	if cacheable {
		for i := range cfgs {
			fps[i] = cfgs[i].Fingerprint()
		}
	}

	// Config-tier lookups first (serial, so fresh/reused counts are
	// deterministic), then one fan-out over the missing pairs — every pair
	// runs even if one fails, so the winning error is the lowest pending
	// position's — then config-tier stores in deterministic pair order.
	var pending []int
	for c := range cfgs {
		for s := 0; s < samples; s++ {
			idx := c*samples + s
			if cacheable {
				if v := st.lookupConfig(s, fps[c], &cfgs[c]); v != nil {
					vals[idx] = v
					reused[c]++
					continue
				}
			}
			pending = append(pending, idx)
		}
	}
	if len(pending) == 0 {
		return vals, fresh, reused, nil // fully warm: no worker, no pooled Sim drawn
	}
	errs := make([]error, len(pending))
	// With the built-in predictor each worker runs its pairs through a
	// pooled Scratch; custom predictors manage their own storage.
	runIndexedScratch(workersFor(m.Parallelism, len(pending)), len(pending), cacheable, func(pi int, sc *Scratch) {
		idx := pending[pi]
		vals[idx], errs[pi] = m.evalSample(st, sc, traces[idx%samples], cfgs[idx/samples], idx%samples)
	})
	for pi, err := range errs {
		if err != nil {
			return nil, nil, nil, wrap(pending[pi]/samples, err)
		}
	}
	for _, idx := range pending {
		fresh[idx/samples]++
		if cacheable {
			st.storeConfig(idx%samples, fps[idx/samples], cfgs[idx/samples], vals[idx])
		}
	}
	return vals, fresh, reused, nil
}

// averageSamples reduces config c's per-sample rows in sample order; it
// is the only averaging, so every entry point agrees to the bit.
func averageSamples(vals [][]float64, c, samples, k int) []float64 {
	acc := make([]float64, k)
	for s := 0; s < samples; s++ {
		v := vals[c*samples+s]
		for i := range acc {
			acc[i] += v[i]
		}
	}
	for i := range acc {
		acc[i] /= float64(samples)
	}
	return acc
}
