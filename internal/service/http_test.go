package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tempo/internal/scenario"
	"tempo/internal/service"
)

// newTestServer starts an in-process control plane behind a real HTTP
// server; the cleanup tears both down.
func newTestServer(t *testing.T, cfg service.Config) (*service.Service, *httptest.Server) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// smallSpec returns the builtin preset, optionally resized.
func smallSpec(t *testing.T, iterations int) *scenario.Spec {
	t.Helper()
	spec, err := service.SmallSpec()
	if err != nil {
		t.Fatal(err)
	}
	if iterations > 0 {
		spec.Iterations = iterations
	}
	return spec
}

// createCluster registers the spec under id and fails the test on any
// error.
func createCluster(t *testing.T, url, id string, spec *scenario.Spec) {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(service.CreateRequest{ID: id, Spec: raw})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/clusters", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("creating %s: %s: %s", id, resp.Status, b)
	}
}

// do issues a request (JSON content type on bodies) and returns status
// code and body.
func do(t *testing.T, method, url string, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestHandlerErrors locks the API's failure modes: malformed input is
// 400, unknown clusters are 404, conflicts are 409, a body past the 8 MiB
// bound is 413 — never a 200 with garbage, never a 500.
func TestHandlerErrors(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	spec := smallSpec(t, 0)
	createCluster(t, ts.URL, "c1", spec)

	badSpec := `{"id":"bad","spec":{"name":"x","seed":1,"capacity":4,"interval_minutes":5,"iterations":1,"tenants":[],"slos":[{"metric":"utilization"}],"initial":{},"controller":{"disabled":true}}}`
	typoSpec := `{"id":"typo","spec":{"name":"x","seeed":1}}`
	tooLong := strings.Repeat("a", 8<<20) // one JSON string that alone fills the body bound
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"create: body not JSON", "POST", "/v1/clusters", "{", http.StatusBadRequest},
		{"create: unknown request field", "POST", "/v1/clusters", `{"identifier":"x"}`, http.StatusBadRequest},
		{"create: missing spec", "POST", "/v1/clusters", `{"id":"x"}`, http.StatusBadRequest},
		{"create: spec fails validation", "POST", "/v1/clusters", badSpec, http.StatusBadRequest},
		{"create: unknown spec field", "POST", "/v1/clusters", typoSpec, http.StatusBadRequest},
		{"create: duplicate id", "POST", "/v1/clusters", mustCreateBody(t, "c1", spec), http.StatusConflict},
		{"create: body over the bound", "POST", "/v1/clusters", `{"id":"big","spec":"` + tooLong + `"}`, http.StatusRequestEntityTooLarge},
		{"tick: unknown cluster", "POST", "/v1/clusters/nope/tick", "", http.StatusNotFound},
		{"status: unknown cluster", "GET", "/v1/clusters/nope", "", http.StatusNotFound},
		{"report: unknown cluster", "GET", "/v1/clusters/nope/report", "", http.StatusNotFound},
		{"delete: unknown cluster", "DELETE", "/v1/clusters/nope", "", http.StatusNotFound},
		{"qs: unknown cluster", "GET", "/v1/clusters/nope/qs", "", http.StatusNotFound},
		{"qs: malformed from", "GET", "/v1/clusters/c1/qs?from=yesterday", "", http.StatusBadRequest},
		{"qs: malformed to", "GET", "/v1/clusters/c1/qs?to=1x", "", http.StatusBadRequest},
		{"qs: inverted window", "GET", "/v1/clusters/c1/qs?from=10m&to=5m", "", http.StatusBadRequest},
		{"whatif: unknown cluster", "POST", "/v1/clusters/nope/whatif", `{"candidates":[{}]}`, http.StatusNotFound},
		{"whatif: no candidates", "POST", "/v1/clusters/c1/whatif", `{"candidates":[]}`, http.StatusBadRequest},
		{"whatif: unknown tenant", "POST", "/v1/clusters/c1/whatif", `{"candidates":[{"ghost":{"weight":2}}]}`, http.StatusBadRequest},
		{"whatif: invalid weight", "POST", "/v1/clusters/c1/whatif", `{"candidates":[{"deadline":{"weight":-1}}]}`, http.StatusBadRequest},
		{"whatif: preemption overflows", "POST", "/v1/clusters/c1/whatif", `{"candidates":[{"deadline":{"weight":1,"share_preempt_seconds":1e10}}]}`, http.StatusBadRequest},
		{"whatif: body over the bound", "POST", "/v1/clusters/c1/whatif", `{"candidates":[{"` + tooLong + `":{}}]}`, http.StatusRequestEntityTooLarge},
		{"query: body over the bound", "POST", "/v1/clusters/c1/query", `{"version":1,"source":"` + tooLong + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, tc.method, ts.URL+tc.path, tc.body)
			if code != tc.want {
				t.Fatalf("%s %s: got %d, want %d (body: %s)", tc.method, tc.path, code, tc.want, body)
			}
			var e service.ErrorEnvelope
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" || e.Code == "" {
				t.Fatalf("error responses must carry the {\"error\", \"code\"} envelope, got: %s", body)
			}
		})
	}
}

// TestAPIVersioning pins the /v1 surface: versioned paths serve, the
// retired unversioned aliases are 404s, POST bodies with the wrong media
// type are a 415 with the unsupported_media_type code, and error
// envelopes expose stable machine-readable codes.
func TestAPIVersioning(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	spec := smallSpec(t, 0)
	createCluster(t, ts.URL, "c1", spec)

	for _, path := range []string{"/healthz", "/clusters/c1", "/metrics"} {
		for prefix, want := range map[string]int{"/v1": http.StatusOK, "": http.StatusNotFound} {
			resp, err := http.Get(ts.URL + prefix + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Fatalf("GET %s%s: %d, want %d", prefix, path, resp.StatusCode, want)
			}
		}
	}
	if code, _ := do(t, "POST", ts.URL+"/clusters/c1/tick", ""); code != http.StatusNotFound {
		t.Fatalf("POST legacy tick: %d, want 404", code)
	}

	// A POST body that does not declare application/json is a 415.
	resp, err := http.Post(ts.URL+"/v1/clusters/c1/whatif", "text/plain", strings.NewReader(`{"candidates":[{}]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("wrong media type: got %d (%s), want 415", resp.StatusCode, b)
	}
	var env service.ErrorEnvelope
	if err := json.Unmarshal(b, &env); err != nil || env.Code != service.CodeUnsupportedMedia {
		t.Fatalf("415 envelope: got %s, want code %q", b, service.CodeUnsupportedMedia)
	}

	// Envelope codes are stable discriminators per failure class.
	for _, tc := range []struct {
		method, path, body, code string
	}{
		{"GET", "/v1/clusters/nope", "", service.CodeNotFound},
		{"POST", "/v1/clusters", mustCreateBody(t, "c1", spec), service.CodeExists},
		{"POST", "/v1/clusters", "{", service.CodeBadRequest},
		{"POST", "/v1/clusters/c1/query", `{"version":1,"source":"nope"}`, service.CodeInvalidPlan},
	} {
		code, body := do(t, tc.method, ts.URL+tc.path, tc.body)
		if code/100 == 2 {
			t.Fatalf("%s %s: unexpected success", tc.method, tc.path)
		}
		var e service.ErrorEnvelope
		if err := json.Unmarshal(body, &e); err != nil || e.Code != tc.code {
			t.Fatalf("%s %s: envelope %s, want code %q", tc.method, tc.path, body, tc.code)
		}
	}
}

func mustCreateBody(t *testing.T, id string, spec *scenario.Spec) string {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(service.CreateRequest{ID: id, Spec: raw})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestLifecycleAndDeterminism drives one cluster tick by tick over HTTP
// and asserts the serving layer is a transparent wrapper: tick indices
// advance in order, ticking past the budget is a clean 409, the QS
// endpoint's full windows reproduce each interval's Observed vector, and
// the final report is byte-identical to the sequential scenario run.
func TestLifecycleAndDeterminism(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	spec := smallSpec(t, 0)
	createCluster(t, ts.URL, "c1", spec)

	for i := 0; i < spec.Iterations; i++ {
		code, body := do(t, "POST", ts.URL+"/v1/clusters/c1/tick", "")
		if code != http.StatusOK {
			t.Fatalf("tick %d: %d: %s", i, code, body)
		}
		var tick service.TickResponse
		if err := json.Unmarshal(body, &tick); err != nil {
			t.Fatal(err)
		}
		if tick.Iteration != i {
			t.Fatalf("tick %d reported iteration %d", i, tick.Iteration)
		}
		if wantDone := i == spec.Iterations-1; tick.Done != wantDone {
			t.Fatalf("tick %d: done=%v, want %v", i, tick.Done, wantDone)
		}
	}
	if code, body := do(t, "POST", ts.URL+"/v1/clusters/c1/tick", ""); code != http.StatusConflict {
		t.Fatalf("tick past completion: got %d (%s), want 409", code, body)
	}

	code, body := do(t, "GET", ts.URL+"/v1/clusters/c1/report", "")
	if code != http.StatusOK {
		t.Fatalf("report: %d: %s", code, body)
	}
	seq, err := scenario.Run(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("service report differs from sequential scenario.Run")
	}

	// Full-interval QS windows must reproduce the per-iteration Observed
	// vectors exactly — the accumulator path and the control loop's
	// evaluation are the same numbers.
	code, body = do(t, "GET", ts.URL+"/v1/clusters/c1/qs", "")
	if code != http.StatusOK {
		t.Fatalf("qs: %d: %s", code, body)
	}
	var qs service.QSResponse
	if err := json.Unmarshal(body, &qs); err != nil {
		t.Fatal(err)
	}
	if len(qs.Windows) != spec.Iterations {
		t.Fatalf("qs returned %d windows, want %d", len(qs.Windows), spec.Iterations)
	}
	for i, win := range qs.Windows {
		obs := seq.Iterations[i].Observed
		if len(win.Values) != len(obs) {
			t.Fatalf("window %d has %d values, want %d", i, len(win.Values), len(obs))
		}
		for k := range obs {
			if win.Values[k] != obs[k] {
				t.Fatalf("window %d objective %d: qs %v != observed %v", i, k, win.Values[k], obs[k])
			}
		}
	}

	// A sub-interval window clips to the touched iterations only.
	code, body = do(t, "GET", ts.URL+"/v1/clusters/c1/qs?from=2m30s&to=7m30s", "")
	if code != http.StatusOK {
		t.Fatalf("windowed qs: %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &qs); err != nil {
		t.Fatal(err)
	}
	if len(qs.Windows) != 2 {
		t.Fatalf("sub-window query returned %d windows, want 2 (iterations 0 and 1)", len(qs.Windows))
	}
	if qs.Windows[0].From != "2m30s" || qs.Windows[1].To != "7m30s" {
		t.Fatalf("sub-window bounds not clipped: %+v", qs.Windows)
	}

	if code, _ := do(t, "DELETE", ts.URL+"/v1/clusters/c1", ""); code != http.StatusNoContent {
		t.Fatalf("delete: got %d, want 204", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/v1/clusters/c1", ""); code != http.StatusNotFound {
		t.Fatalf("status after delete: got %d, want 404", code)
	}
}

// TestWhatIfEndpoint scores candidates over HTTP and pins determinism:
// identical requests yield identical vectors, and candidate order is
// preserved.
func TestWhatIfEndpoint(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	createCluster(t, ts.URL, "c1", smallSpec(t, 0))

	req := `{"candidates":[{},{"deadline":{"weight":4}},{"deadline":{"weight":1,"min_share":2}}]}`
	code, body := do(t, "POST", ts.URL+"/v1/clusters/c1/whatif", req)
	if code != http.StatusOK {
		t.Fatalf("whatif: %d: %s", code, body)
	}
	var first service.WhatIfResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if len(first.Results) != 3 {
		t.Fatalf("got %d result rows, want 3", len(first.Results))
	}
	if len(first.Objectives) != 2 {
		t.Fatalf("got objectives %v, want the spec's two SLOs", first.Objectives)
	}
	for i, row := range first.Results {
		if len(row) != len(first.Objectives) {
			t.Fatalf("row %d has %d values, want %d", i, len(row), len(first.Objectives))
		}
	}
	_, body2 := do(t, "POST", ts.URL+"/v1/clusters/c1/whatif", req)
	var second service.WhatIfResponse
	if err := json.Unmarshal(body2, &second); err != nil {
		t.Fatal(err)
	}
	for i := range first.Results {
		for k := range first.Results[i] {
			if first.Results[i][k] != second.Results[i][k] {
				t.Fatalf("what-if not deterministic: row %d differs across identical requests", i)
			}
		}
	}
}

// TestConcurrentTicksSerialized fires one tick request per iteration at a
// single cluster, all at once, and asserts the shard serializes them:
// every iteration index comes back exactly once and the report still
// matches the sequential run.
func TestConcurrentTicksSerialized(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Shards: 2, WorkersPerShard: 4})
	spec := smallSpec(t, 8)
	createCluster(t, ts.URL, "c1", spec)

	results := make([]int, spec.Iterations)
	var wg sync.WaitGroup
	wg.Add(spec.Iterations)
	for i := 0; i < spec.Iterations; i++ {
		go func(slot int) {
			defer wg.Done()
			code, body := do(t, "POST", ts.URL+"/v1/clusters/c1/tick", "")
			if code != http.StatusOK {
				t.Errorf("concurrent tick: %d: %s", code, body)
				results[slot] = -1
				return
			}
			var tick service.TickResponse
			if err := json.Unmarshal(body, &tick); err != nil {
				t.Error(err)
				results[slot] = -1
				return
			}
			results[slot] = tick.Iteration
		}(i)
	}
	wg.Wait()
	sort.Ints(results)
	for i, got := range results {
		if got != i {
			t.Fatalf("iteration indices %v: want exactly 0..%d once each", results, spec.Iterations-1)
		}
	}

	_, got := do(t, "GET", ts.URL+"/v1/clusters/c1/report", "")
	seq, err := scenario.Run(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("report after concurrent ticks differs from sequential run")
	}
}

// TestHammer32Goroutines is the race gate: 32 goroutines hammer one
// service instance over HTTP with every kind of request — ticks, QS
// windows, what-if probes, status, metrics, healthz, list — against a
// small shared cluster population while more clusters are created and
// deleted concurrently. Run with -race (CI always does); correctness
// here is "no race, no 5xx".
func TestHammer32Goroutines(t *testing.T) {
	svc, ts := newTestServer(t, service.Config{Shards: 4, WorkersPerShard: 2})
	spec := smallSpec(t, 4)
	const fixed = 6
	for i := 0; i < fixed; i++ {
		createCluster(t, ts.URL, fmt.Sprintf("fixed-%d", i), spec)
	}

	const goroutines = 32
	const opsEach = 40
	var tickOK atomic.Int64
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("fixed-%d", g%fixed)
			for op := 0; op < opsEach; op++ {
				var code int
				var body []byte
				switch op % 9 {
				case 0:
					code, body = do(t, "POST", ts.URL+"/v1/clusters/"+id+"/tick", "")
					if code == http.StatusOK {
						tickOK.Add(1)
					}
					// Ticking past the budget is an expected 409 under
					// contention.
					if code == http.StatusConflict {
						code = http.StatusOK
					}
				case 1:
					code, body = do(t, "GET", ts.URL+"/v1/clusters/"+id+"/qs?from=0s&to=20m", "")
				case 2:
					code, body = do(t, "POST", ts.URL+"/v1/clusters/"+id+"/whatif", `{"candidates":[{"deadline":{"weight":2}}]}`)
				case 3:
					code, body = do(t, "GET", ts.URL+"/v1/clusters/"+id, "")
				case 4:
					code, body = do(t, "GET", ts.URL+"/v1/metrics", "")
				case 5:
					code, body = do(t, "GET", ts.URL+"/v1/healthz", "")
				case 6:
					code, body = do(t, "GET", ts.URL+"/v1/clusters", "")
				case 7:
					// Churn: a private cluster created and dropped mid-storm.
					churn := fmt.Sprintf("churn-%d-%d", g, op)
					createCluster(t, ts.URL, churn, spec)
					code, body = do(t, "DELETE", ts.URL+"/v1/clusters/"+churn, "")
					if code == http.StatusNoContent {
						code = http.StatusOK
					}
				case 8:
					plan := `{"version":1,"source":"jobs","ops":[{"op":"group_by","by":["tenant"]},{"op":"aggregate","aggs":[{"fn":"count"}]}]}`
					code, body = do(t, "POST", ts.URL+"/v1/clusters/"+id+"/query", plan)
				}
				if code >= 500 {
					t.Errorf("goroutine %d op %d: server error %d: %s", g, op, code, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	m := svc.Metrics()
	if m.Ticks == 0 {
		t.Fatal("hammer recorded no ticks")
	}
	for _, sm := range m.Shards {
		if sm.Ticks > 0 && sm.TickLatencyP99Ms < sm.TickLatencyP50Ms {
			t.Fatalf("shard %d: p99 %.3fms < p50 %.3fms", sm.Shard, sm.TickLatencyP99Ms, sm.TickLatencyP50Ms)
		}
	}
	// The service's tick accounting must agree with an independent count:
	// every 200 tick response the clients saw, and nothing else.
	if got := tickOK.Load(); m.Ticks != got {
		t.Fatalf("service counted %d ticks, clients saw %d successful tick responses", m.Ticks, got)
	}
	if m.WhatIfEvals == 0 || m.QSQueries == 0 || m.AdHocQueries == 0 {
		t.Fatalf("probe counters not recorded: %+v", m)
	}
}

// TestDriveVerifies exercises the load driver end to end against an
// in-process server, with verification on — the same path CI's load
// step takes at 100 clusters.
func TestDriveVerifies(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	rep, err := service.Drive(ts.URL, service.DriveOptions{
		Clusters:    12,
		Workers:     8,
		QSEvery:     2,
		QueryEvery:  2,
		WhatIfEvery: 3,
		Verify:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified != 12 {
		t.Fatalf("verified %d/12 clusters", rep.Verified)
	}
	if rep.Ticks != 12*rep.Iterations {
		t.Fatalf("drove %d ticks, want %d", rep.Ticks, 12*rep.Iterations)
	}
	if rep.QSQueries == 0 || rep.QueryCalls == 0 || rep.WhatIfCalls == 0 {
		t.Fatalf("probe traffic missing: %+v", rep)
	}
}
