package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tempo"
	"tempo/internal/linalg"
	"tempo/internal/pald"
	"tempo/internal/store"
)

// hookStrategy runs a hook at the top of every Propose — inside execTick,
// with the shard slot and the cluster mutex held. A hook error fails the
// control step.
type hookStrategy struct {
	pald.Strategy
	hook func() error
}

func (h *hookStrategy) Propose(x linalg.Vector, obs []float64, n int) ([]linalg.Vector, error) {
	if err := h.hook(); err != nil {
		return nil, err
	}
	return h.Strategy.Propose(x, obs, n)
}

// hookedCluster registers a small-spec cluster (durable when the service
// has a store) whose ticks call hook from inside the control step.
func hookedCluster(t *testing.T, svc *Service, id string, hook func() error) *Cluster {
	t.Helper()
	spec, err := SmallSpec()
	if err != nil {
		t.Fatal(err)
	}
	var cs *store.ClusterStore
	if svc.cfg.Store != nil {
		if cs, err = svc.cfg.Store.Create(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	inner, err := pald.NewRandomSearch(tempo.DefaultSpace(spec.Capacity, spec.TenantNames()).Dim(), 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tempo.NewSession(spec, tempo.ScenarioOptions{Parallelism: 1, Strategy: &hookStrategy{Strategy: inner, hook: hook}})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(id, svc.shardFor(id), sess, cs)
	svc.mu.Lock()
	svc.clusters[id] = c
	svc.mu.Unlock()
	return c
}

// TestSlotsBoundTickConcurrency: the bound the worker pool gave by
// construction. With one shard of two slots, six clusters ticked at once
// never have more than two ticks executing (counted from inside the
// control step, which a gate holds shut while the test looks); the other
// four show as queue_length in /v1/metrics and are gone from it
// afterwards; and the Retry-After of a shed grows with the waiters ahead.
func TestSlotsBoundTickConcurrency(t *testing.T) {
	svc, err := New(Config{Shards: 1, WorkersPerShard: 2, AdmissionTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var inside, peak atomic.Int32
	entered := make(chan struct{}, 64) // one send per Propose of the run: never blocks
	gate := make(chan struct{})
	hook := func() error {
		n := inside.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		entered <- struct{}{}
		<-gate
		inside.Add(-1)
		return nil
	}
	const clusters = 6
	ids := make([]string, clusters)
	for i := range ids {
		ids[i] = "c" + strconv.Itoa(i)
		hookedCluster(t, svc, ids[i], hook)
	}
	// A 2s p99 makes the hint read in whole seconds: ceil((waiters+1) x 2s / 2 slots).
	svc.shards[0].lat.record(2 * time.Second)

	var wg sync.WaitGroup
	errs := make(chan error, clusters)
	tick := func(id string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := svc.Get(id)
			if err == nil {
				_, _, err = svc.Tick(context.Background(), c)
			}
			if err != nil {
				errs <- fmt.Errorf("tick %s: %w", id, err)
			}
		}()
	}
	queueLength := func() int {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
		var m Metrics
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		return m.Shards[0].QueueLength
	}
	// shedRetryAfter sheds one tick at admission and returns its hint.
	shedRetryAfter := func() int {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/clusters/c0/tick", nil).WithContext(ctx))
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusServiceUnavailable || env.Code != CodeOverloaded {
			t.Fatalf("tick against full slots answered %d %s, want 503 overloaded", rec.Code, rec.Body)
		}
		secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil {
			t.Fatalf("shed Retry-After %q is not whole seconds", rec.Header().Get("Retry-After"))
		}
		return secs
	}

	tick(ids[0])
	tick(ids[1])
	<-entered
	<-entered
	if got := queueLength(); got != 0 {
		t.Fatalf("queue_length = %d with both ticks inside a slot, want 0", got)
	}
	alone := shedRetryAfter()

	for _, id := range ids[2:] {
		tick(id)
	}
	for deadline := time.Now().Add(5 * time.Second); queueLength() != clusters-2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue_length = %d, want %d ticks waiting behind two full slots", queueLength(), clusters-2)
		}
	}
	if n := inside.Load(); n != 2 {
		t.Fatalf("%d ticks executing with four more waiting, want 2", n)
	}
	if behindFour := shedRetryAfter(); alone != 1 || behindFour != 5 {
		t.Fatalf("Retry-After %ds with no waiter and %ds behind four, want 1 and 5", alone, behindFour)
	}

	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := peak.Load(); got != 2 {
		t.Fatalf("peak of %d ticks executing at once, want exactly the shard's 2 slots", got)
	}
	if got := queueLength(); got != 0 {
		t.Fatalf("queue_length = %d after every tick returned, want 0", got)
	}
	if m := svc.Metrics(); m.Ticks != clusters || m.ShedRequests != 2 {
		t.Fatalf("ticks = %d, shed_requests = %d, want %d and 2", m.Ticks, m.ShedRequests, clusters)
	}
}

// TestTickPanicGoesToCrash: a panic inside a tick is handed to
// Service.crash — which outside tests never returns — before the slot is
// given back, so the panic cannot end as a recovered handler error with
// the half-applied session still serving.
func TestTickPanicGoesToCrash(t *testing.T) {
	svc, err := New(Config{Shards: 1, WorkersPerShard: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close() // returns only if the panicking tick gave its slot and drain registration back
	var got any
	slotHeld := false
	svc.crash = func(v any) {
		got = v
		slotHeld = len(svc.shards[0].slots) == 1
	}
	c := hookedCluster(t, svc, "c1", func() error { panic("control step blew up") })

	func() {
		defer func() {
			if v := recover(); v != "control step blew up" {
				t.Errorf("Tick re-raised %v after crash returned, want the original panic", v)
			}
		}()
		svc.Tick(context.Background(), c) //nolint:errcheck // panics
	}()
	if got != "control step blew up" || !slotHeld {
		t.Fatalf("crash saw %v (slot held: %v), want the tick's panic while the slot is still taken", got, slotHeld)
	}
}

// TestTickPanicIsProcessFatal runs the real crashProcess in a child: a
// tick that panics under net/http, which recovers handler panics, must
// still take the whole process down — the restart then rebuilds every
// cluster from its WAL — instead of answering and serving on.
func TestTickPanicIsProcessFatal(t *testing.T) {
	if os.Getenv("TEMPO_TICK_PANIC_CHILD") == "1" {
		svc, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		hookedCluster(t, svc, "c1", func() error { panic("control step blew up") })
		ts := httptest.NewServer(svc.Handler())
		resp, err := http.Post(ts.URL+"/v1/clusters/c1/tick", "application/json", nil)
		if err == nil {
			resp.Body.Close()
		}
		time.Sleep(5 * time.Second) // the re-raised panic ends the process long before this
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTickPanicIsProcessFatal$")
	cmd.Env = append(os.Environ(), "TEMPO_TICK_PANIC_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child survived a panic inside a tick:\n%s", out)
	}
	if !strings.Contains(string(out), "service: panic inside a tick: control step blew up") {
		t.Fatalf("child died without the tick's panic on stderr:\n%s", out)
	}
}
