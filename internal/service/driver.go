package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tempo/internal/scenario"
)

// This file is the client side of the control plane. Client is the one
// HTTP client with the retry-on-refusal policy; tempoctl uses it
// directly, and Drive builds the load generator on it: spin up N clusters
// over the HTTP API and drive concurrent tick/qs/what-if traffic against
// them, then (optionally) prove that sharded, interleaved execution
// changed nothing — every cluster's report must be byte-identical to the
// same scenario run sequentially in process. `tempoctl load` wraps Drive
// behind flags; the service-throughput benchmark drives it directly.

// DriveOptions configure one load-generation run.
type DriveOptions struct {
	// Clusters is how many clusters to create and drive; 0 means 100.
	Clusters int
	// Workers is the client-side concurrency; 0 means 32. Every worker
	// interleaves ticks across all clusters, so all Clusters clusters are
	// in flight concurrently regardless of the worker count.
	Workers int
	// BaseSpec is the scenario every cluster derives from; nil means
	// SmallSpec. Cluster i runs the base spec with Name "<name>-<i>" and
	// Seed base+i, so clusters share the scenario shape but not their
	// random streams.
	BaseSpec *scenario.Spec
	// TickRate caps the aggregate tick request rate per second; 0 means
	// unthrottled.
	TickRate float64
	// QSEvery issues a windowed QS query after every k-th tick round per
	// cluster; 0 disables the probes.
	QSEvery int
	// QueryEvery issues an ad-hoc query-plan request (per-tenant job count
	// over the jobs relation) after every k-th tick round per cluster; 0
	// disables the probes.
	QueryEvery int
	// WhatIfEvery issues a two-candidate what-if scoring request after
	// every k-th tick round per cluster; 0 disables the probes.
	WhatIfEvery int
	// Verify re-runs every cluster's scenario sequentially in process and
	// compares the canonical report bytes against the service's.
	Verify bool
	// Retries is how many times a refused request is retried after
	// backoff; 0 disables retries. Only refusals that prove the request
	// never executed are retried — 503/429 responses carrying a
	// retryable envelope code (overloaded, degraded, unavailable,
	// subscription_limit). Transport errors and 500 "internal" are NOT
	// retried: the request may have reached the server and executed, and
	// blindly replaying a tick could double-apply it.
	Retries int
	// RetryBase and RetryMax bound the capped exponential backoff:
	// attempt k waits jitter(RetryBase·2^k) capped at RetryMax, then
	// stretched to any Retry-After hint the server sent. Defaults 25ms
	// and 2s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetrySeed seeds the deterministic backoff jitter, so a replayed
	// run waits the same schedule.
	RetrySeed int64
}

func (o DriveOptions) withDefaults() (DriveOptions, error) {
	if o.Clusters <= 0 {
		o.Clusters = 100
	}
	if o.Workers <= 0 {
		o.Workers = 32
	}
	if o.BaseSpec == nil {
		spec, err := SmallSpec()
		if err != nil {
			return o, err
		}
		o.BaseSpec = spec
	}
	return o, nil
}

// DriveReport summarizes a load-generation run.
type DriveReport struct {
	Clusters     int     `json:"clusters"`
	Iterations   int     `json:"iterations"`
	Ticks        int     `json:"ticks"`
	QSQueries    int     `json:"qs_queries"`
	QueryCalls   int     `json:"query_calls"`
	WhatIfCalls  int     `json:"whatif_calls"`
	WallSeconds  float64 `json:"wall_seconds"`
	TicksPerSec  float64 `json:"ticks_per_sec"`
	ClustersDone float64 `json:"clusters_per_sec"`
	// Verified counts clusters whose service-side report matched the
	// sequential run byte for byte; Mismatched lists the ones that did not
	// (always empty on success — any entry fails the run).
	Verified   int      `json:"verified"`
	Mismatched []string `json:"mismatched,omitempty"`
	// Retries counts requests that were refused with a retryable 503/429
	// and re-sent — the drive's view of how much shedding it absorbed.
	Retries int64 `json:"retries"`
}

// Drive runs one load-generation pass against a control plane at baseURL.
// It creates the clusters, drives every one of them through its full
// iteration budget with ticks interleaved across clusters (plus optional
// QS and what-if probe traffic), and — with Verify set — asserts each
// cluster's report is byte-identical to the same spec run sequentially.
func Drive(baseURL string, opts DriveOptions) (*DriveReport, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	base, err := json.Marshal(opts.BaseSpec)
	if err != nil {
		return nil, fmt.Errorf("driver: marshaling base spec: %w", err)
	}
	specs := make([]*scenario.Spec, opts.Clusters)
	ids := make([]string, opts.Clusters)
	for i := range specs {
		spec, err := deriveSpec(base, opts.BaseSpec.Name, i)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
		ids[i] = spec.Name
	}

	client := NewClient(opts)
	rep := &DriveReport{Clusters: opts.Clusters, Iterations: opts.BaseSpec.Iterations}
	start := time.Now()

	// Phase 1: create all clusters, so the whole population is resident
	// before the first tick.
	if err := eachIndex(opts.Workers, opts.Clusters, func(i int) error {
		body, err := json.Marshal(CreateRequest{ID: ids[i], Spec: mustMarshal(specs[i])})
		if err != nil {
			return err
		}
		var resp CreateResponse
		return client.call(http.MethodPost, baseURL+"/v1/clusters", body, &resp)
	}); err != nil {
		return nil, fmt.Errorf("driver: creating clusters: %w", err)
	}

	// Phase 2: drive ticks round-robin across the population. Work item t
	// ticks cluster t mod N, so every cluster's control loops advance
	// interleaved — the many-tenant serving shape, not N sequential runs.
	var ticks, qsQueries, queryCalls, whatifCalls atomic.Int64
	throttle := newThrottle(opts.TickRate)
	defer throttle.stop()
	total := opts.Clusters * opts.BaseSpec.Iterations
	if err := eachIndex(opts.Workers, total, func(t int) error {
		i := t % opts.Clusters
		round := t / opts.Clusters
		throttle.wait()
		var tick TickResponse
		if err := client.call(http.MethodPost, baseURL+"/v1/clusters/"+ids[i]+"/tick", nil, &tick); err != nil {
			return fmt.Errorf("tick %d of %s: %w", round, ids[i], err)
		}
		ticks.Add(1)
		if opts.QSEvery > 0 && round%opts.QSEvery == 0 {
			var qs QSResponse
			if err := client.call(http.MethodGet, baseURL+"/v1/clusters/"+ids[i]+"/qs", nil, &qs); err != nil {
				return fmt.Errorf("qs probe of %s: %w", ids[i], err)
			}
			qsQueries.Add(1)
		}
		if opts.QueryEvery > 0 && round%opts.QueryEvery == 0 {
			if err := queryProbe(client, baseURL, ids[i]); err != nil {
				return fmt.Errorf("query probe of %s: %w", ids[i], err)
			}
			queryCalls.Add(1)
		}
		if opts.WhatIfEvery > 0 && round%opts.WhatIfEvery == 0 {
			if err := whatIfProbe(client, baseURL, ids[i], specs[i]); err != nil {
				return fmt.Errorf("what-if probe of %s: %w", ids[i], err)
			}
			whatifCalls.Add(1)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("driver: driving ticks: %w", err)
	}
	rep.Ticks = int(ticks.Load())
	rep.QSQueries = int(qsQueries.Load())
	rep.QueryCalls = int(queryCalls.Load())
	rep.WhatIfCalls = int(whatifCalls.Load())
	rep.WallSeconds = time.Since(start).Seconds()
	if rep.WallSeconds > 0 {
		rep.TicksPerSec = float64(rep.Ticks) / rep.WallSeconds
		rep.ClustersDone = float64(rep.Clusters) / rep.WallSeconds
	}

	// Phase 3: fetch reports; with Verify, re-run each scenario
	// sequentially and compare bytes.
	var mu sync.Mutex
	if err := eachIndex(opts.Workers, opts.Clusters, func(i int) error {
		got, err := client.Do(http.MethodGet, baseURL+"/v1/clusters/"+ids[i]+"/report", nil)
		if err != nil {
			return err
		}
		if !opts.Verify {
			return nil
		}
		seqRep, err := scenario.Run(specs[i], scenario.Options{Parallelism: 1})
		if err != nil {
			return fmt.Errorf("sequential run of %s: %w", ids[i], err)
		}
		want, err := seqRep.MarshalCanonical()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if bytes.Equal(got, want) {
			rep.Verified++
		} else {
			rep.Mismatched = append(rep.Mismatched, ids[i])
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("driver: verifying reports: %w", err)
	}
	rep.Retries = client.retried.Load()
	if len(rep.Mismatched) > 0 {
		return rep, fmt.Errorf("driver: %d/%d cluster reports differ from their sequential runs (first: %s) — sharded execution broke determinism",
			len(rep.Mismatched), rep.Clusters, rep.Mismatched[0])
	}
	return rep, nil
}

// deriveSpec clones the marshaled base spec and gives clone i its own
// name and seed.
func deriveSpec(base []byte, baseName string, i int) (*scenario.Spec, error) {
	spec, err := scenario.Load(bytes.NewReader(base))
	if err != nil {
		return nil, fmt.Errorf("driver: re-parsing base spec: %w", err)
	}
	spec.Name = fmt.Sprintf("%s-%04d", baseName, i)
	spec.Seed += int64(i)
	return spec, nil
}

// whatIfProbe scores two perturbed candidates: the equal-weight default
// and one skewed toward the first tenant — a cheap, always-valid probe
// shape for any scenario.
func whatIfProbe(client *Client, baseURL, id string, spec *scenario.Spec) error {
	names := spec.TenantNames()
	skew := map[string]scenario.TenantConfigSpec{names[0]: {Weight: 4}}
	body, err := json.Marshal(WhatIfRequest{
		Candidates: []map[string]scenario.TenantConfigSpec{{}, skew},
	})
	if err != nil {
		return err
	}
	var resp WhatIfResponse
	return client.call(http.MethodPost, baseURL+"/v1/clusters/"+id+"/whatif", body, &resp)
}

// queryProbeJSON is the ad-hoc plan the driver's query probes POST: a
// per-tenant job count — valid against any scenario, cheap to evaluate,
// and exercising the group-by/aggregate path end to end.
const queryProbeJSON = `{
  "version": 1,
  "source": "jobs",
  "ops": [
    {"op": "group_by", "by": ["tenant"]},
    {"op": "aggregate", "aggs": [{"fn": "count", "as": "jobs"}]}
  ]
}`

// queryProbe issues one ad-hoc query-plan request against cluster id.
func queryProbe(client *Client, baseURL, id string) error {
	var out struct {
		Ticks int               `json:"ticks"`
		Rows  []json.RawMessage `json:"rows"`
	}
	return client.call(http.MethodPost, baseURL+"/v1/clusters/"+id+"/query", []byte(queryProbeJSON), &out)
}

// eachIndex runs fn(0..n-1) across workers goroutines, stopping at the
// first error.
func eachIndex(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				if err := fn(i); err != nil {
					stop.Store(true)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// throttle is a token bucket pacing tick requests at rate per second.
type throttle struct {
	tokens chan struct{}
	done   chan struct{}
}

func newThrottle(rate float64) *throttle {
	t := &throttle{done: make(chan struct{})}
	if rate <= 0 {
		return t
	}
	t.tokens = make(chan struct{}, 1)
	interval := time.Duration(float64(time.Second) / rate)
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-t.done:
				return
			case <-tick.C:
				select {
				case t.tokens <- struct{}{}:
				default:
				}
			}
		}
	}()
	return t
}

func (t *throttle) wait() {
	if t.tokens != nil {
		<-t.tokens
	}
}

func (t *throttle) stop() { close(t.done) }

// Client wraps http.Client with the resilience policy every tempod client
// shares: an end-to-end request timeout, plus capped exponential backoff
// with deterministic jitter for refusals the server guarantees never
// executed (503/429 carrying a retryable envelope code). The jitter
// stream is a pure function of (seed, draw index), so a replayed run
// waits the same schedule — load generation stays reproducible under
// injected faults.
type Client struct {
	c         *http.Client
	retries   int
	base, max time.Duration
	seed      uint64
	draws     atomic.Uint64
	retried   atomic.Int64
	sleep     func(time.Duration) // swapped out by tests to record waits
}

// requestTimeout bounds every HTTP request a Client makes, end to end.
const requestTimeout = 30 * time.Second

// NewClient returns a client under the retry fields of opts (Retries,
// RetryBase, RetryMax, RetrySeed; zero values take the defaults
// documented there).
func NewClient(opts DriveOptions) *Client {
	if opts.RetryBase <= 0 {
		opts.RetryBase = 25 * time.Millisecond
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = 2 * time.Second
	}
	return &Client{
		c:       &http.Client{Timeout: requestTimeout},
		retries: opts.Retries,
		base:    opts.RetryBase,
		max:     opts.RetryMax,
		seed:    uint64(opts.RetrySeed),
		sleep:   time.Sleep,
	}
}

// retryableCode reports whether an envelope code promises the request was
// refused before execution, so replaying it is safe. "unavailable"
// qualifies: the server uses it only for refusals at the door (closed or
// draining service, startup gate, chaos shed). "internal" does not: a tick
// that failed on the server's side may be in the WAL.
func retryableCode(code string) bool {
	switch code {
	case CodeOverloaded, CodeDegraded, CodeUnavailable, CodeStreamLimit:
		return true
	}
	return false
}

// backoff returns the wait before retry attempt k (0-based): base·2^k
// capped at max, scaled by a jittered factor in [0.5, 1.0) drawn from the
// deterministic stream, then stretched to honor any Retry-After hint.
func (cl *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := cl.base << uint(attempt)
	if d > cl.max || d <= 0 { // <= 0: shift overflow
		d = cl.max
	}
	// splitmix64 finalizer over (seed ^ draw index): uniform, seeded, and
	// independent of goroutine interleaving order only in aggregate — each
	// draw is deterministic, the assignment of draws to requests is not,
	// which is fine: the multiset of waits is reproducible.
	x := cl.seed ^ (cl.draws.Add(1) * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	frac := float64(x>>11) / float64(1<<53) // [0, 1)
	d = time.Duration(float64(d) * (0.5 + 0.5*frac))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// Do issues one request (a non-nil body is sent as JSON) and returns the
// body of the 2xx response. It is the only retry loop: responses refused
// before execution are retried per the client's policy; transport errors
// never are — the request may have reached the server and executed, and
// blindly replaying a tick could double-apply it. Any other response is
// an error rendered by EnvelopeError.
func (cl *Client) Do(method, url string, body []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := cl.c.Do(req)
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode/100 == 2 {
			return raw, nil
		}
		if attempt < cl.retries && retryableStatus(resp.StatusCode) {
			var env ErrorEnvelope
			if json.Unmarshal(raw, &env) == nil && retryableCode(env.Code) {
				cl.retried.Add(1)
				cl.sleep(cl.backoff(attempt, retryAfterHint(resp)))
				continue
			}
		}
		return nil, fmt.Errorf("%s %s: %s", method, url, EnvelopeError(resp.Status, raw))
	}
}

// call is Do with the response decoded into out (when non-nil).
func (cl *Client) call(method, url string, body []byte, out any) error {
	raw, err := cl.Do(method, url, body)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, url, err)
	}
	return nil
}

// retryableStatus limits retries to the two refusal statuses the service
// uses for shed-before-execution responses.
func retryableStatus(status int) bool {
	return status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests
}

// retryAfterHint parses an integer-seconds Retry-After header; 0 if
// absent or malformed.
func retryAfterHint(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// EnvelopeError renders a non-2xx response for humans: the service's
// {error, code} envelope becomes "<status>: <code>: <error>" so the
// machine-readable code is in the message, not buried in raw JSON; bodies
// that are not the envelope (proxies, panics) fall back to the raw text.
func EnvelopeError(status string, raw []byte) string {
	var env ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Code != "" {
		return fmt.Sprintf("%s: %s: %s", status, env.Code, env.Error)
	}
	return fmt.Sprintf("%s: %s", status, strings.TrimSpace(string(raw)))
}

func mustMarshal(spec *scenario.Spec) json.RawMessage {
	b, err := json.Marshal(spec)
	if err != nil {
		// A spec that round-tripped through scenario.Load cannot fail to
		// marshal; this is unreachable.
		panic(err)
	}
	return b
}

// smallSpecJSON is the builtin load-generation preset: a two-tenant
// replay scenario with the controller on, sized so one cluster's full run
// is a few milliseconds — throughput measurements then exercise the
// service machinery, not one giant emulation.
const smallSpecJSON = `{
  "name": "loadgen-small",
  "description": "Builtin loadgen preset: two-tenant replay scenario, controller on, three 5-minute intervals.",
  "seed": 4242,
  "capacity": 8,
  "interval_minutes": 5,
  "iterations": 3,
  "replay": true,
  "tenants": [
    {"name": "deadline", "profile": "deadline-driven", "scale": 0.4,
     "deadline": {"factor_lo": 1.2, "factor_hi": 1.8}},
    {"name": "besteffort", "profile": "best-effort", "scale": 0.4}
  ],
  "slos": [
    {"queue": "deadline", "metric": "deadline_violations", "slack": 0.25, "target": 0},
    {"queue": "besteffort", "metric": "avg_response_time"}
  ],
  "initial": {},
  "controller": {"candidates": 3, "max_step": 0.2}
}`

// SmallSpec returns the builtin load-generation preset scenario.
func SmallSpec() (*scenario.Spec, error) {
	return scenario.Load(strings.NewReader(smallSpecJSON))
}
