package whatif

import (
	"fmt"
	"sync"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

// One scoring engine. Evaluate, EvaluateBatch, Sensitivity and
// EvaluateSearch all resolve their (configuration, sample) pairs through
// Model.score, working against a searchState that holds the model's
// compiled QS templates and two exact-verified tiers per sample:
//
//   - a config tier keyed by configuration fingerprint (verified with
//     cluster.Config.Equal): the built-in predictor is a pure function of
//     (trace, configuration, horizon), so an identical configuration
//     scored against an identical trace reuses the whole QS vector with
//     no simulation at all — this is what makes warm-starting the
//     incumbent free;
//   - a certificate tier: the latest cluster.Certificate a run on the
//     sample earned, with that run's QS vector. A configuration the
//     certificate covers provably schedules the sample exactly as the
//     certified run did, so it too is served with no simulation. PALD's
//     candidates perturb a weight or a limit that often never binds: a
//     weight no contended pick depends on, a max share above the peak.
//
// Both serve the built-in predictor only; a custom Predictor is scored
// for every pair. Every other pair simulates and evaluates its schedule
// through the compiled templates (qs.Compiled), which the state compiles
// once per model shape and every worker shares. Both tiers reuse values
// only after an exact check, so reuse is bit-identical to recomputation
// no matter which worker populated an entry first.
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
// model's shape (templates by value, horizon, sample count) changes.

// maxSearchConfigPerSample caps the config tier. 64 covers many ticks of
// candidate churn around the incumbent; the tier is FIFO, so a
// wandering optimizer evicts its oldest points first.
const maxSearchConfigPerSample = 64

// cfgCacheEntry is one config-tier record: the exact configuration (a
// clone, so later caller mutations cannot corrupt the key) and its
// per-sample QS vector.
type cfgCacheEntry struct {
	fp   uint64
	cfg  cluster.Config
	vals []float64
}

// certEntry is the certificate tier's record: the latest certificate a
// sample's simulations earned and the QS vector of its run.
type certEntry struct {
	cert *cluster.Certificate
	vals []float64
}

// searchSample is one sample's slice of the search state. cfgs is a ring
// once full: next is its oldest entry, the one the next store replaces.
type searchSample struct {
	trace *workload.Trace
	cfgs  []cfgCacheEntry
	next  int
	cert  certEntry
}

// searchState is what the scoring engine works against: the compiled
// templates and the two tiers, per sample. The mutex guards the state;
// entries are immutable once stored.
type searchState struct {
	mu       sync.Mutex
	set      *qs.Compiled
	horizon  time.Duration
	nsamples int
	samples  []searchSample
}

// reconcile aligns the state with this call's model shape and sample
// traces, invalidating exactly what changed: everything on a shape
// (epoch) change, one sample's entries when that sample's trace content
// changed. The epoch compares the templates by value, so a different set
// of the same length recompiles and drops every vector. Trace identity is
// the pointer when generators hand back the same trace (FromTrace and
// FromProfiles both do) and a content comparison otherwise (a caller's
// generator that redraws an equal trace each call keeps its entries; a
// regenerated different trace fails the comparison and drops them). It
// returns the compiled templates, which the call's workers share.
func (st *searchState) reconcile(templates []qs.Template, horizon time.Duration, traces []*workload.Trace) *qs.Compiled {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.set == nil || !st.set.Matches(templates) || st.horizon != horizon || st.nsamples != len(traces) {
		st.set, st.horizon, st.nsamples = qs.Compile(templates), horizon, len(traces)
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
	return st.set
}

// cert returns the sample's certificate-tier record, whose cert is nil
// when the sample has none. Records are immutable once stored.
func (st *searchState) cert(sample int) certEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.samples[sample].cert
}

// storeCert makes cert, with its run's QS vector, the sample's
// certificate-tier record.
func (st *searchState) storeCert(sample int, cert *cluster.Certificate, vals []float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.samples[sample].cert = certEntry{cert: cert, vals: vals}
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

// storeConfig records a freshly scored (configuration, sample) vector.
// A full tier overwrites its oldest entry in place, so it stays FIFO and
// never holds more than its cap.
func (st *searchState) storeConfig(sample int, fp uint64, cfg cluster.Config, vals []float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sm := &st.samples[sample]
	e := cfgCacheEntry{fp: fp, cfg: cfg.Clone(), vals: vals}
	switch {
	case sm.cfgs == nil:
		sm.cfgs = append(make([]cfgCacheEntry, 0, maxSearchConfigPerSample), e)
	case len(sm.cfgs) < maxSearchConfigPerSample:
		sm.cfgs = append(sm.cfgs, e)
	default:
		sm.cfgs[sm.next] = e
		sm.next = (sm.next + 1) % maxSearchConfigPerSample
	}
}

// EvaluateSearch scores candidate configurations like EvaluateBatch —
// row i of preds is cfgs[i] averaged over the model's samples, and every
// prediction is bit-identical to what EvaluateBatch would produce — but
// against the model's cross-tick state, so a configuration scored on an
// earlier call is served from the config tier without simulating.
//
// fresh[i] counts the samples whose predictor actually ran for cfgs[i];
// reused[i] counts config-tier and certificate hits (no simulation at
// all). A warm-started candidate has fresh[i] == 0.
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
// reused[c] its config-tier and certificate hits.
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
	set := st.reconcile(m.Templates, m.Horizon, traces)

	// The tiers only apply to the built-in predictor, whose output is a
	// pure function of (trace, configuration, horizon) and whose Sim
	// certifies its runs; a custom Predict is an opaque function we must
	// call, and score, per (config, sample) pair.
	cacheable := m.Predict == nil
	fps := make([]uint64, len(cfgs))
	if cacheable {
		for i := range cfgs {
			fps[i] = cfgs[i].Fingerprint()
		}
	}

	// Config-tier lookups first (serial, so fresh/reused counts are
	// deterministic), then the missing pairs in two fan-outs — every pair
	// resolves even if one fails, so the winning error is the lowest
	// pending position's — then config-tier stores in deterministic pair
	// order.
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
	served := make([]bool, len(pending))
	// Two waves: each sample's first pending pair, then the rest. A pair
	// its sample's certificate covers takes the certified run's vector;
	// the others simulate. A first-wave run stores the certificate it
	// earns, so the second wave sees it. A first wave holds one pair per
	// sample, so no two of its workers store to, or read, one sample's
	// record, and which pairs a certificate serves never depends on worker
	// timing. A custom predictor earns no certificates, so its pairs form
	// one wave. With the built-in predictor each worker runs its pairs
	// through a pooled Sim; custom predictors manage their own storage.
	first, rest := waves(pending, samples, cacheable)
	for w, wave := range [][]int{first, rest} {
		if len(wave) == 0 {
			continue
		}
		certify := w == 0
		runIndexedSim(workersFor(m.Parallelism, len(wave)), len(wave), cacheable, func(k int, sm *cluster.Sim) {
			pi := wave[k]
			idx := pending[pi]
			s, c := idx%samples, idx/samples
			if e := st.cert(s); e.cert != nil && e.cert.Covers(cfgs[c]) {
				vals[idx], served[pi] = e.vals, true
				return
			}
			vals[idx], errs[pi] = m.evalSample(set, sm, traces[s], cfgs[c], s)
			if certify && errs[pi] == nil {
				if cert := sm.Certificate(); cert != nil {
					st.storeCert(s, cert, vals[idx])
				}
			}
		})
	}
	for pi, err := range errs {
		if err != nil {
			return nil, nil, nil, wrap(pending[pi]/samples, err)
		}
	}
	for pi, idx := range pending {
		if served[pi] {
			reused[idx/samples]++
		} else {
			fresh[idx/samples]++
		}
		if cacheable {
			st.storeConfig(idx%samples, fps[idx/samples], cfgs[idx/samples], vals[idx])
		}
	}
	return vals, fresh, reused, nil
}

// waves splits the pending pairs (positions into pending) into the two
// waves score resolves them in, both in pair order: each sample's first
// pending pair, and the rest. Without the built-in predictor every pair
// is in the rest.
func waves(pending []int, samples int, cacheable bool) (first, rest []int) {
	// One array for both: first holds at most one pair per sample.
	buf := make([]int, samples+len(pending))
	first, rest = buf[:0:samples], buf[samples:samples]
	seen := make([]bool, samples)
	for pi, idx := range pending {
		if s := idx % samples; cacheable && !seen[s] {
			seen[s] = true
			first = append(first, pi)
		} else {
			rest = append(rest, pi)
		}
	}
	return first, rest
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
