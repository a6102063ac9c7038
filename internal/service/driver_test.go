package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tempo/internal/store"
)

// stubAPIClient builds a Client with a recorded sleep so tests assert the
// backoff schedule without waiting it out.
func stubAPIClient(opts DriveOptions) (*Client, *[]time.Duration) {
	cl := NewClient(opts)
	slept := &[]time.Duration{}
	cl.sleep = func(d time.Duration) { *slept = append(*slept, d) }
	return cl, slept
}

// TestAPIClientRetriesRetryableRefusals: a 503 with a retryable envelope
// code is retried (honoring Retry-After as a backoff floor) and the
// eventual success is returned; the retry counter records the shed.
func TestAPIClientRetriesRetryableRefusals(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"queue full","code":"overloaded"}`)) //nolint:errcheck
			return
		}
		w.Write([]byte(`{"ok":true}`)) //nolint:errcheck
	}))
	defer srv.Close()

	cl, slept := stubAPIClient(DriveOptions{Retries: 3, RetrySeed: 5})
	var out struct {
		OK bool `json:"ok"`
	}
	if err := cl.call(http.MethodPost, srv.URL, nil, &out); err != nil {
		t.Fatalf("call after one retryable 503: %v", err)
	}
	if !out.OK {
		t.Fatal("success response not decoded")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
	if got := cl.retried.Load(); got != 1 {
		t.Fatalf("retried counter = %d, want 1", got)
	}
	if len(*slept) != 1 || (*slept)[0] < 2*time.Second {
		t.Fatalf("backoff %v did not honor the Retry-After: 2 floor", *slept)
	}
}

// TestAPIClientDoesNotRetryNonRetryable: 4xx envelopes and 503s without
// a retryable code fail immediately — blind replay of a request that may
// have executed is forbidden.
func TestAPIClientDoesNotRetryNonRetryable(t *testing.T) {
	cases := []struct {
		name   string
		status int
		body   string
	}{
		{"bad request", http.StatusBadRequest, `{"error":"nope","code":"bad_request"}`},
		{"503 without envelope", http.StatusServiceUnavailable, `gateway fell over`},
		{"503 non-retryable code", http.StatusServiceUnavailable, `{"error":"x","code":"internal"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.WriteHeader(tc.status)
				w.Write([]byte(tc.body)) //nolint:errcheck
			}))
			defer srv.Close()
			cl, slept := stubAPIClient(DriveOptions{Retries: 5, RetrySeed: 5})
			if err := cl.call(http.MethodGet, srv.URL, nil, nil); err == nil {
				t.Fatal("non-retryable refusal returned nil error")
			}
			if got := calls.Load(); got != 1 {
				t.Fatalf("server saw %d calls, want 1 (no retries)", got)
			}
			if len(*slept) != 0 {
				t.Fatalf("client slept %v before a non-retryable failure", *slept)
			}
		})
	}
}

// TestAPIClientTransportErrorsNotRetried: a connection failure is
// returned immediately — the request may have reached the server, so
// replaying it is not the client's call to make.
func TestAPIClientTransportErrorsNotRetried(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // nothing listens anymore
	cl, slept := stubAPIClient(DriveOptions{Retries: 5, RetrySeed: 5})
	err := cl.call(http.MethodPost, srv.URL, []byte(`{}`), nil)
	if err == nil {
		t.Fatal("call against a dead listener returned nil")
	}
	if len(*slept) != 0 {
		t.Fatalf("client backed off %v on a transport error", *slept)
	}
}

// TestBackoffDeterministicJitter: the jitter stream is a pure function
// of (seed, draw index) — same seed, same schedule; the wait stays
// inside [base/2·2^k, base·2^k] capped at max and never below a
// Retry-After floor.
func TestBackoffDeterministicJitter(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		cl, _ := stubAPIClient(DriveOptions{
			Retries: 4, RetryBase: 20 * time.Millisecond, RetryMax: 500 * time.Millisecond, RetrySeed: seed,
		})
		var ds []time.Duration
		for k := 0; k < 6; k++ {
			ds = append(ds, cl.backoff(k, 0))
		}
		return ds
	}
	a, b := schedule(11), schedule(11)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", k, a[k], b[k])
		}
		cap := 20 * time.Millisecond << uint(k)
		if cap > 500*time.Millisecond {
			cap = 500 * time.Millisecond
		}
		if a[k] < cap/2 || a[k] > cap {
			t.Fatalf("draw %d = %v outside jitter band [%v, %v]", k, a[k], cap/2, cap)
		}
	}
	c := schedule(12)
	same := true
	for k := range a {
		if a[k] != c[k] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds drew an identical backoff schedule")
	}

	cl, _ := stubAPIClient(DriveOptions{Retries: 1, RetryBase: 10 * time.Millisecond, RetrySeed: 1})
	if d := cl.backoff(0, 3*time.Second); d < 3*time.Second {
		t.Fatalf("backoff %v below the 3s Retry-After floor", d)
	}
}

// TestRetryableCodeTable pins which envelope codes promise
// shed-before-execution.
func TestRetryableCodeTable(t *testing.T) {
	for _, code := range []string{CodeOverloaded, CodeDegraded, CodeUnavailable, CodeStreamLimit} {
		if !retryableCode(code) {
			t.Errorf("retryableCode(%q) = false, want true", code)
		}
	}
	for _, code := range []string{CodeBadRequest, CodeNotFound, CodeInternal, CodeTooLarge, "", "gibberish"} {
		if retryableCode(code) {
			t.Errorf("retryableCode(%q) = true, want false", code)
		}
	}
}

// TestApplyFailureAfterAppendFailStops: when the control step fails
// after its schedule was logged, the WAL is a tick ahead of the session.
// The cluster must fail-stop into degraded (cause attached, error NOT
// the retryable ErrDegraded — the tick is durable: over HTTP a 500
// "internal" with no Retry-After, not the client's bad request), and
// re-arm must bring the logged tick back from the store.
func TestApplyFailureAfterAppendFailStops(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Store: st, SnapshotEvery: 1 << 20, RecoveryProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	failed := false
	c := hookedCluster(t, svc, "c1", func() error {
		if failed {
			return nil
		}
		failed = true
		return errors.New("injected propose failure")
	})
	sess, cs := c.Session(), c.store

	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/clusters/c1/tick", nil))
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError || env.Code != CodeInternal {
		t.Fatalf("tick with a failing control step answered %d %s, want 500 with code %q", rec.Code, rec.Body, CodeInternal)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Fatalf("logged-but-not-applied tick carried Retry-After %q; it is durable and must not be retried", ra)
	}
	if !c.Degraded() || sess.Ticks() != 0 || cs.WALSize() == 0 {
		t.Fatalf("after the failed apply: degraded=%v session ticks=%d wal bytes=%d, want true/0/>0", c.Degraded(), sess.Ticks(), cs.WALSize())
	}
	if _, _, err := svc.Tick(context.Background(), c); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write to the fail-stopped cluster returned %v, want ErrDegraded", err)
	}
	if n := svc.ProbeRecovery(); n != 1 {
		t.Fatalf("ProbeRecovery re-armed %d clusters, want 1", n)
	}
	if got := c.Session().Ticks(); got != 1 {
		t.Fatalf("re-armed session at tick %d, want the logged tick applied (1)", got)
	}
	if _, _, err := svc.Tick(context.Background(), c); err != nil {
		t.Fatalf("tick after re-arm: %v", err)
	}
}
