package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tempo"
	"tempo/internal/chaos"
	"tempo/internal/scenario"
	"tempo/internal/service"
	"tempo/internal/store"
)

// mustChaos builds an injector and fails the test on a bad spec.
func mustChaos(t *testing.T, seed int64, spec chaos.Spec) *chaos.Injector {
	t.Helper()
	inj, err := chaos.New(seed, spec)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// sequentialReport runs the spec uninterrupted in process and returns its
// canonical report bytes — the golden every resilience test compares
// service output against.
func sequentialReport(t *testing.T, spec *scenario.Spec) []byte {
	t.Helper()
	ref, err := scenario.Run(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestOverloadShedsWithRetryAfter saturates a one-slot service with slow
// ticks and requires the API to shed the overflow as
// 503 {error, code: overloaded} with an integer Retry-After hint — then
// proves the sheds were free: retrying the shed ticks to completion
// yields a report byte-identical to the sequential run.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	spec := smallSpec(t, 6)
	want := sequentialReport(t, spec)

	svc, ts := newTestServer(t, service.Config{
		Shards:           1,
		WorkersPerShard:  1,
		AdmissionTimeout: 30 * time.Millisecond,
		Chaos: mustChaos(t, 1, chaos.Spec{
			TickLatency: 1.0, TickLatencyMs: 150,
			// Handler-level shedding off: this test isolates slot overload.
		}),
	})
	createCluster(t, ts.URL, "c1", spec)

	// First wave: more concurrent ticks than the one slot can run. The
	// overflow must come back 503 overloaded, not block and not execute.
	const wave = 8
	type outcome struct {
		code       int
		body       []byte
		retryAfter string
	}
	results := make([]outcome, wave)
	var wg sync.WaitGroup
	for i := 0; i < wave; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/clusters/c1/tick", "application/json", nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body) //nolint:errcheck
			results[i] = outcome{resp.StatusCode, buf.Bytes(), resp.Header.Get("Retry-After")}
		}(i)
	}
	wg.Wait()

	succeeded, shed := 0, 0
	for _, r := range results {
		switch r.code {
		case http.StatusOK:
			succeeded++
		case http.StatusServiceUnavailable:
			shed++
			var env service.ErrorEnvelope
			if err := json.Unmarshal(r.body, &env); err != nil {
				t.Fatalf("shed response is not the error envelope: %s", r.body)
			}
			if env.Code != service.CodeOverloaded {
				t.Fatalf("shed response code = %q, want %q (%s)", env.Code, service.CodeOverloaded, r.body)
			}
			secs, err := strconv.Atoi(r.retryAfter)
			if err != nil || secs < 1 {
				t.Fatalf("shed response Retry-After = %q, want integer seconds >= 1", r.retryAfter)
			}
		default:
			t.Fatalf("tick returned %d: %s", r.code, r.body)
		}
	}
	if shed == 0 {
		t.Fatal("no request was shed: overload never triggered")
	}
	if succeeded == 0 {
		t.Fatal("every request was shed: admission never succeeded")
	}

	// Retry phase: a shed is a promise the tick never ran, so driving the
	// remaining budget must land exactly on the sequential trajectory.
	c, err := svc.Get("c1")
	if err != nil {
		t.Fatal(err)
	}
	for !c.Session().Done() {
		if _, _, err := svc.Tick(context.Background(), c); err != nil && !errors.Is(err, service.ErrOverloaded) {
			t.Fatal(err)
		}
	}
	got, err := c.Session().Report().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("report after shed+retry differs from sequential run — a shed tick executed")
	}
	if m := svc.Metrics(); m.ShedRequests == 0 {
		t.Fatal("metrics shed_requests = 0 after observed sheds")
	}
}

// TestAdmissionHonorsRequestDeadline: a caller whose context expires
// while its tick is stuck in admission gets ErrOverloaded promptly — the
// wait is bounded by the earlier of the request deadline and
// AdmissionTimeout, not by how long the slot holder takes.
func TestAdmissionHonorsRequestDeadline(t *testing.T) {
	svc, ts := newTestServer(t, service.Config{
		Shards:           1,
		WorkersPerShard:  1,
		AdmissionTimeout: 10 * time.Second, // deliberately long: the ctx must win
		Chaos:            mustChaos(t, 1, chaos.Spec{TickLatency: 1.0, TickLatencyMs: 300}),
	})
	spec := smallSpec(t, 50)
	createCluster(t, ts.URL, "c1", spec)
	c, err := svc.Get("c1")
	if err != nil {
		t.Fatal(err)
	}

	// One slow tick holds the slot and a second waits behind it.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			svc.Tick(context.Background(), c) //nolint:errcheck
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the first take the slot

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = svc.Tick(ctx, c)
	elapsed := time.Since(start)
	if !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("deadline-expired admission returned %v, want ErrOverloaded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("shed took %v, want prompt rejection at the ~20ms deadline", elapsed)
	}
	wg.Wait()
}

// TestShedsNeverCorruptSerialization is the -race hammer: many goroutines
// slam one cluster through a tiny admission window, so a large fraction
// of ticks shed. Exactly Iterations ticks may succeed, and the final
// report must match the sequential run — sheds never half-execute.
func TestShedsNeverCorruptSerialization(t *testing.T) {
	spec := smallSpec(t, 30)
	want := sequentialReport(t, spec)

	svc, ts := newTestServer(t, service.Config{
		Shards:           1,
		WorkersPerShard:  1,
		AdmissionTimeout: 2 * time.Millisecond,
		Chaos:            mustChaos(t, 3, chaos.Spec{TickLatency: 0.5, TickLatencyMs: 5}),
	})
	createCluster(t, ts.URL, "c1", spec)
	c, err := svc.Get("c1")
	if err != nil {
		t.Fatal(err)
	}

	var successes, sheds atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for successes.Load() < int64(spec.Iterations) {
				_, _, err := svc.Tick(context.Background(), c)
				switch {
				case err == nil:
					successes.Add(1)
				case errors.Is(err, service.ErrOverloaded):
					sheds.Add(1)
				case errors.Is(err, tempo.ErrSessionDone):
					return // raced past the budget; fine
				default:
					t.Errorf("tick: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := successes.Load(); got != int64(spec.Iterations) {
		t.Fatalf("%d ticks succeeded, want exactly %d", got, spec.Iterations)
	}
	if sheds.Load() == 0 {
		t.Fatal("no sheds under a 2ms admission window — hammer never contended")
	}
	got, err := c.Session().Report().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("hammered report differs from sequential run")
	}
}

// faultNextAppend arms a torn-write fault on the cluster's next WAL
// append, through the store handle the test opened.
func faultNextAppend(t *testing.T, st *store.Store, id string) {
	t.Helper()
	cs, err := st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	cs.InjectFault(cs.WALSize())
}

// TestDegradedMode walks the full degraded-cluster lifecycle with the WAL
// fault landing on every tick index in turn: the failed tick leaves the
// session untouched (log-then-apply: nothing to roll back, the same
// *tempo.Session keeps serving), the cluster flips read-only (writes 503
// degraded, reads keep serving the committed state), the recovery probe
// re-arms it, and the finished run is byte-identical to a fault-free
// sequential run.
func TestDegradedMode(t *testing.T) {
	spec := smallSpec(t, 6)
	want := sequentialReport(t, spec)

	for k := 0; k < spec.Iterations; k++ {
		t.Run("fault at tick "+strconv.Itoa(k), func(t *testing.T) {
			st := openStore(t, t.TempDir())
			svc, ts := newTestServer(t, service.Config{
				Store:                 st,
				SnapshotEvery:         2,
				RecoveryProbeInterval: time.Hour, // probe manually; no background races
			})
			createCluster(t, ts.URL, "c1", spec)
			c, err := svc.Get("c1")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if _, _, err := svc.Tick(context.Background(), c); err != nil {
					t.Fatal(err)
				}
			}
			sess := c.Session()

			// Break the WAL: the next append fails mid-write.
			faultNextAppend(t, st, "c1")
			code, body := do(t, "POST", ts.URL+"/v1/clusters/c1/tick", "")
			if code != http.StatusServiceUnavailable {
				t.Fatalf("tick on faulted WAL = %d, want 503: %s", code, body)
			}
			var env service.ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil || env.Code != service.CodeDegraded {
				t.Fatalf("degraded tick envelope = %s, want code %q", body, service.CodeDegraded)
			}
			if !c.Degraded() {
				t.Fatal("cluster not marked degraded after WAL append failure")
			}
			// A tick the store never logged must never have been applied.
			if got := c.Session().Ticks(); got != k {
				t.Fatalf("degraded session at tick %d, want committed tick %d", got, k)
			}
			if c.Session() != sess {
				t.Fatal("degrading swapped the session; a failed append must leave it in place")
			}

			// Reads keep serving last committed state.
			if code, body := do(t, "GET", ts.URL+"/v1/clusters/c1/qs", ""); code != http.StatusOK {
				t.Fatalf("qs on degraded cluster = %d, want 200: %s", code, body)
			}
			if code, body := do(t, "GET", ts.URL+"/v1/clusters/c1/report", ""); code != http.StatusOK {
				t.Fatalf("report on degraded cluster = %d, want 200: %s", code, body)
			}

			// A second write is refused at the door — degraded clusters never
			// take a slot, so the broken store is not hammered.
			if code, _ := do(t, "POST", ts.URL+"/v1/clusters/c1/tick", ""); code != http.StatusServiceUnavailable {
				t.Fatalf("second tick on degraded cluster = %d, want 503", code)
			}
			if m := svc.Metrics(); m.DegradedClusters != 1 {
				t.Fatalf("metrics degraded_clusters = %d, want 1", m.DegradedClusters)
			}

			// Recovery: the probe reopens the WAL (clearing the injected fault),
			// resumes from disk, and re-arms the cluster.
			if n := svc.ProbeRecovery(); n != 1 {
				t.Fatalf("ProbeRecovery recovered %d clusters, want 1", n)
			}
			if c.Degraded() {
				t.Fatal("cluster still degraded after successful probe")
			}
			if m := svc.Metrics(); m.DegradedClusters != 0 {
				t.Fatalf("metrics degraded_clusters = %d after recovery, want 0", m.DegradedClusters)
			}
			for !c.Session().Done() {
				if _, _, err := svc.Tick(context.Background(), c); err != nil {
					t.Fatal(err)
				}
			}
			got, err := c.Session().Report().MarshalCanonical()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("recovered cluster's report differs from fault-free sequential run")
			}
		})
	}
}

// TestClusterLifecycle walks the lifecycle table — every (state, event)
// pair of {active, degraded, gone} × {fault, re-arm, delete} — then runs a
// seeded random sequence of the same events (plus plain ticks) over a
// population, checking after every step that the degraded_clusters gauge
// equals the number of degraded clusters. Racing probes must count each
// re-arm exactly once.
func TestClusterLifecycle(t *testing.T) {
	spec := smallSpec(t, 100)
	st := openStore(t, t.TempDir())
	svc, _ := newTestServer(t, service.Config{Store: st, RecoveryProbeInterval: time.Hour})
	ctx := context.Background()

	type state int
	const (
		active state = iota
		degraded
		gone
	)
	stateOf := func(c *service.Cluster) state {
		if _, err := svc.Get(c.ID); errors.Is(err, service.ErrNotFound) {
			return gone
		} else if c.Degraded() {
			return degraded
		}
		return active
	}
	tick := func(c *service.Cluster) error {
		_, _, err := svc.Tick(ctx, c)
		return err
	}
	// fault arms the WAL and ticks into it. A cluster that is not active
	// refuses the tick at the door and never reaches the armed fault.
	fault := func(c *service.Cluster) error {
		if stateOf(c) != gone { // a gone cluster has no WAL left to arm
			faultNextAppend(t, st, c.ID)
		}
		return tick(c)
	}
	// rearm races four probes: a probe that loses the cluster mutex must
	// not count a re-arm it did not perform.
	rearm := func(*service.Cluster) error {
		want := svc.Metrics().DegradedClusters
		var total atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				total.Add(int64(svc.ProbeRecovery()))
			}()
		}
		wg.Wait()
		if got := total.Load(); got != want {
			return fmt.Errorf("racing probes counted %d re-arms of %d degraded clusters", got, want)
		}
		return nil
	}
	remove := func(c *service.Cluster) error { return svc.Delete(ctx, c.ID) }

	enter := func(t *testing.T, id string, s state) *service.Cluster {
		t.Helper()
		c, err := svc.Create(id, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := tick(c); err != nil {
			t.Fatal(err)
		}
		switch s {
		case degraded:
			if err := fault(c); !errors.Is(err, service.ErrDegraded) {
				t.Fatalf("fault: %v, want ErrDegraded", err)
			}
		case gone:
			if err := remove(c); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}

	for i, tc := range []struct {
		name    string
		from    state
		event   func(*service.Cluster) error
		wantErr error
		to      state
	}{
		{"active/fault", active, fault, service.ErrDegraded, degraded},
		{"active/rearm", active, rearm, nil, active},
		{"active/delete", active, remove, nil, gone},
		{"degraded/fault", degraded, fault, service.ErrDegraded, degraded},
		{"degraded/rearm", degraded, rearm, nil, active},
		{"degraded/delete", degraded, remove, nil, gone},
		{"gone/fault", gone, fault, service.ErrNotFound, gone},
		{"gone/rearm", gone, rearm, nil, gone},
		{"gone/delete", gone, remove, service.ErrNotFound, gone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := enter(t, "table-"+strconv.Itoa(i), tc.from)
			if err := tc.event(c); !errors.Is(err, tc.wantErr) {
				t.Fatalf("event returned %v, want %v", err, tc.wantErr)
			}
			if got := stateOf(c); got != tc.to {
				t.Fatalf("cluster in state %d, want %d", got, tc.to)
			}
			want := int64(0)
			if tc.to == degraded {
				want = 1
			}
			if got := svc.Metrics().DegradedClusters; got != want {
				t.Fatalf("degraded_clusters = %d, want %d", got, want)
			}
			if tc.to == active {
				// A re-armed (or never-faulted) cluster takes writes again.
				if err := tick(c); err != nil {
					t.Fatalf("tick on active cluster: %v", err)
				}
			}
			if tc.to != gone {
				if err := remove(c); err != nil {
					t.Fatal(err)
				}
			}
		})
	}

	t.Run("random sequence", func(t *testing.T) {
		clusters := make([]*service.Cluster, 4)
		states := make([]state, len(clusters))
		for i := range clusters {
			clusters[i] = enter(t, "rand-"+strconv.Itoa(i), active)
		}
		events := []func(*service.Cluster) error{tick, fault, fault, rearm, remove}
		rng := rand.New(rand.NewSource(12))
		for step := 0; step < 80; step++ {
			i := rng.Intn(len(clusters))
			e := rng.Intn(len(events))
			switch e {
			case 1, 2:
				if states[i] == active {
					states[i] = degraded
				}
			case 3:
				for j := range states {
					if states[j] == degraded {
						states[j] = active
					}
				}
			case 4:
				states[i] = gone
			}
			// Errors are the refusals the table above pins; the state and
			// gauge checks below are this subtest's assertions.
			events[e](clusters[i]) //nolint:errcheck
			wantDegraded := int64(0)
			for j, c := range clusters {
				if got := stateOf(c); got != states[j] {
					t.Fatalf("step %d: cluster %s in state %d, want %d", step, c.ID, got, states[j])
				}
				if states[j] == degraded {
					wantDegraded++
				}
			}
			if got := svc.Metrics().DegradedClusters; got != wantDegraded {
				t.Fatalf("step %d: degraded_clusters = %d, %d clusters are degraded", step, got, wantDegraded)
			}
		}
	})
}

// chaosDrive runs one full load-generation pass against a durable,
// chaos-injected service and returns the drive report plus the
// injector's decision counts. The drive itself asserts byte-identical
// reports (Verify), so a nil error means every surviving cluster matched
// its fault-free sequential golden.
func chaosDrive(t *testing.T, seed int64, clusters int) (*service.DriveReport, chaos.Counts) {
	t.Helper()
	inj := mustChaos(t, seed, chaos.Spec{
		TickLatency: 0.2, TickLatencyMs: 5,
		WALFault:     0.25,
		HandlerError: 0.05,
		FsyncStall:   0.1, FsyncStallMs: 2,
	})
	_, ts := newTestServer(t, service.Config{
		Store:                 openStore(t, t.TempDir()),
		SnapshotEvery:         2,
		RecoveryProbeInterval: 25 * time.Millisecond,
		Chaos:                 inj,
	})
	rep, err := service.Drive(ts.URL, service.DriveOptions{
		Clusters:  clusters,
		Workers:   8,
		Verify:    true,
		Retries:   12,
		RetryBase: 5 * time.Millisecond,
		RetryMax:  100 * time.Millisecond,
		RetrySeed: seed,
	})
	if err != nil {
		t.Fatalf("drive under chaos (seed %d): %v", seed, err)
	}
	if rep.Verified != clusters {
		t.Fatalf("seed %d: %d/%d clusters verified byte-identical", seed, rep.Verified, clusters)
	}
	return rep, inj.Counts()
}

// TestChaosDeterministicOutcome is the acceptance gate for the chaos
// subsystem: under a fixed seed injecting WAL faults, tick latency, and
// handler errors, every cluster's report is byte-identical to its
// fault-free sequential golden (asserted inside the drive), every failed
// request carried the {error, code} envelope (the driver only retries
// envelope refusals — a bare failure would surface as a drive error),
// and no shard slot is leaked (the drive completes). Run twice, the
// per-cluster fault schedule is identical: tick-stream decisions are
// pure functions of (seed, cluster, tick sequence), untouched by timing.
func TestChaosDeterministicOutcome(t *testing.T) {
	const seed = 42
	rep1, counts1 := chaosDrive(t, seed, 4)
	rep2, counts2 := chaosDrive(t, seed, 4)

	if counts1.TickDelays != counts2.TickDelays || counts1.WALFaults != counts2.WALFaults {
		t.Fatalf("per-cluster fault schedule not deterministic across runs: %+v vs %+v", counts1, counts2)
	}
	if counts1.WALFaults == 0 {
		t.Fatalf("seed %d injected no WAL faults — pick a seed that exercises degraded mode (counts %+v)", seed, counts1)
	}
	if counts1.TickDelays == 0 {
		t.Fatalf("seed %d injected no tick latency (counts %+v)", seed, counts1)
	}
	if rep1.Retries == 0 || rep2.Retries == 0 {
		t.Fatalf("drives absorbed no sheds (retries %d, %d) — chaos never bit", rep1.Retries, rep2.Retries)
	}
}

// TestChaosSweepRandomSeed is the nightly sweep body: one full chaos
// drive at a fresh random seed. Locally it runs once; nightly CI runs it
// -count=20 under -race, so twenty independent schedules must all either
// serve correct bytes or shed cleanly. The seed is logged for replay.
func TestChaosSweepRandomSeed(t *testing.T) {
	seed := rand.Int63()
	t.Logf("chaos sweep seed %d (replay: chaos.New(%d, spec))", seed, seed)
	rep, counts := chaosDrive(t, seed, 3)
	t.Logf("seed %d: %d ticks, %d retries, counts %+v", seed, rep.Ticks, rep.Retries, counts)
}

// TestDriveRetriesThroughInjected503s is the client-resilience
// acceptance: with ~10%% of requests shed at the door by chaos, a drive
// with retries enabled still converges and reproduces
// sequential-vs-sharded bit-equality on every cluster.
func TestDriveRetriesThroughInjected503s(t *testing.T) {
	_, ts := newTestServer(t, service.Config{
		Chaos: mustChaos(t, 7, chaos.Spec{HandlerError: 0.10}),
	})
	rep, err := service.Drive(ts.URL, service.DriveOptions{
		Clusters:  8,
		Workers:   8,
		Verify:    true,
		Retries:   8,
		RetryBase: 5 * time.Millisecond,
		RetryMax:  50 * time.Millisecond,
		RetrySeed: 7,
	})
	if err != nil {
		t.Fatalf("drive under 10%% injected 503s: %v", err)
	}
	if rep.Verified != rep.Clusters {
		t.Fatalf("%d/%d clusters verified under injected 503s", rep.Verified, rep.Clusters)
	}
	if rep.Retries == 0 {
		t.Fatal("drive recorded zero retries under 10% handler sheds")
	}
}

// TestReadyz covers the readiness endpoint's three windows: starting
// (gate not yet armed), serving, and draining — liveness stays 200
// throughout, readiness flips 503 at both edges.
func TestReadyz(t *testing.T) {
	t.Run("starting", func(t *testing.T) {
		gate := service.NewGate()
		srv := startGateServer(t, gate)
		code, body := do(t, "GET", srv+"/v1/readyz", "")
		if code != http.StatusServiceUnavailable {
			t.Fatalf("readyz before gate armed = %d, want 503: %s", code, body)
		}
		var env service.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Code != service.CodeUnavailable {
			t.Fatalf("starting readyz envelope = %s, want code %q", body, service.CodeUnavailable)
		}
		if code, body := do(t, "GET", srv+"/v1/healthz", ""); code != http.StatusOK {
			t.Fatalf("healthz while starting = %d, want 200 (liveness is not readiness): %s", code, body)
		}

		// Arm the gate: the real handler takes over every path.
		svc, err := service.New(service.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		gate.Set(svc.Handler())
		code, body = do(t, "GET", srv+"/v1/readyz", "")
		if code != http.StatusOK {
			t.Fatalf("readyz after gate armed = %d, want 200: %s", code, body)
		}
		var ready struct {
			Ready bool `json:"ready"`
		}
		if err := json.Unmarshal(body, &ready); err != nil || !ready.Ready {
			t.Fatalf("armed readyz body = %s, want {\"ready\": true}", body)
		}
	})

	t.Run("draining", func(t *testing.T) {
		svc, ts := newTestServer(t, service.Config{
			Chaos: mustChaos(t, 1, chaos.Spec{TickLatency: 1.0, TickLatencyMs: 300}),
		})
		spec := smallSpec(t, 10)
		createCluster(t, ts.URL, "c1", spec)
		c, err := svc.Get("c1")
		if err != nil {
			t.Fatal(err)
		}
		// Put a slow tick in flight so Close has a drain window to observe.
		go svc.Tick(context.Background(), c) //nolint:errcheck
		time.Sleep(50 * time.Millisecond)

		closeDone := make(chan struct{})
		go func() {
			svc.Close()
			close(closeDone)
		}()
		sawDraining := false
		for !sawDraining {
			select {
			case <-closeDone:
				t.Fatal("Close finished before readyz ever reported draining")
			default:
			}
			if code, _ := do(t, "GET", ts.URL+"/v1/readyz", ""); code == http.StatusServiceUnavailable {
				sawDraining = true
			}
		}
		if code, _ := do(t, "GET", ts.URL+"/v1/healthz", ""); code != http.StatusOK {
			t.Fatal("healthz flipped during drain; liveness must hold")
		}
		<-closeDone
	})
}

// startGateServer serves a Gate on a real listener and returns its base
// URL.
func startGateServer(t *testing.T, gate *service.Gate) string {
	t.Helper()
	ts := httptest.NewServer(gate)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestStreamDrainTerminalEvent: a standing SSE subscription caught by
// service shutdown ends with an explicit terminal error event (code
// "unavailable"), not a silent hang — the companion to the existing
// cluster-delete terminal case.
func TestStreamDrainTerminalEvent(t *testing.T) {
	svc, ts := newTestServer(t, service.Config{StreamHeartbeat: 50 * time.Millisecond})
	spec := smallSpec(t, 10)
	createCluster(t, ts.URL, "c1", spec)

	plan := `{"version":1,"source":"jobs","ops":[{"op":"group_by","by":["tenant"]},{"op":"aggregate","aggs":[{"fn":"count","as":"jobs"}]}]}`
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := openStream(t, ctx, ts.URL, "c1", plan)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream subscribe = %d", resp.StatusCode)
	}

	done := make(chan []sseEvent, 1)
	go func() { done <- readSSE(t, resp) }()
	time.Sleep(50 * time.Millisecond) // let the subscription park in its select
	svc.Close()

	select {
	case events := <-done:
		if len(events) == 0 {
			t.Fatal("stream closed with no terminal event")
		}
		last := events[len(events)-1]
		if last.name != "error" {
			t.Fatalf("terminal event = %q, want error", last.name)
		}
		var env service.ErrorEnvelope
		if err := json.Unmarshal([]byte(last.data), &env); err != nil {
			t.Fatalf("terminal error data %q is not the envelope", last.data)
		}
		if env.Code != service.CodeUnavailable {
			t.Fatalf("terminal error code = %q, want %q", env.Code, service.CodeUnavailable)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after Close — drain never reached it")
	}
}

// TestStreamSurvivesServerReadTimeout: a standing SSE subscription must
// outlive the listener's whole-request ReadTimeout (tempod arms one via
// -request-timeout). net/http keeps that read deadline armed during the
// handler; if the handler clears only the write deadline, the expiring
// background read cancels r.Context() and silently severs every stream
// older than the timeout with no terminal event.
func TestStreamSurvivesServerReadTimeout(t *testing.T) {
	svc, err := service.New(service.Config{StreamHeartbeat: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(svc.Handler())
	ts.Config.ReadHeaderTimeout = 150 * time.Millisecond
	ts.Config.ReadTimeout = 150 * time.Millisecond
	ts.Config.WriteTimeout = 150 * time.Millisecond
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	spec := smallSpec(t, 3)
	createCluster(t, ts.URL, "c1", spec)

	plan := `{"version":1,"source":"jobs","ops":[{"op":"group_by","by":["tenant"]},{"op":"aggregate","aggs":[{"fn":"count","as":"jobs"}]}]}`
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := openStream(t, ctx, ts.URL, "c1", plan)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream subscribe = %d", resp.StatusCode)
	}
	done := make(chan []sseEvent, 1)
	go func() { done <- readSSE(t, resp) }()

	// Idle well past the request read deadline, then drive the session to
	// completion: the subscription must still be alive to deliver it.
	time.Sleep(500 * time.Millisecond)
	for i := 0; i < spec.Iterations; i++ {
		tickResp, err := http.Post(ts.URL+"/v1/clusters/c1/tick", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		tickResp.Body.Close()
		if tickResp.StatusCode != http.StatusOK {
			t.Fatalf("tick %d = %d", i, tickResp.StatusCode)
		}
	}
	select {
	case events := <-done:
		if len(events) == 0 {
			t.Fatal("stream severed with no events — the request read deadline killed it")
		}
		if last := events[len(events)-1]; last.name != "done" {
			t.Fatalf("terminal event = %q (%s), want done — stream did not outlive ReadTimeout", last.name, last.data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream never terminated")
	}
}

// TestDeleteShedKeepsCluster: a Delete shed at admission must not lose
// the cluster — the id stays registered and a later delete succeeds.
func TestDeleteShedKeepsCluster(t *testing.T) {
	svc, ts := newTestServer(t, service.Config{
		Shards:           1,
		WorkersPerShard:  1,
		AdmissionTimeout: 5 * time.Millisecond,
		Chaos:            mustChaos(t, 1, chaos.Spec{TickLatency: 1.0, TickLatencyMs: 200}),
	})
	spec := smallSpec(t, 20)
	createCluster(t, ts.URL, "doomed", spec)
	c, err := svc.Get("doomed")
	if err != nil {
		t.Fatal(err)
	}

	// Keep the slot busy, then try to delete past it.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			svc.Tick(context.Background(), c) //nolint:errcheck
		}()
	}
	time.Sleep(50 * time.Millisecond)
	err = svc.Delete(context.Background(), "doomed")
	wg.Wait()
	if err == nil {
		// The teardown squeezed in; nothing left to assert.
		return
	}
	if !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("contended delete returned %v, want ErrOverloaded", err)
	}
	if _, err := svc.Get("doomed"); err != nil {
		t.Fatalf("cluster vanished after a shed delete: %v", err)
	}
	// Unloaded now: the delete must go through.
	if err := svc.Delete(context.Background(), "doomed"); err != nil {
		t.Fatalf("retried delete: %v", err)
	}
	if _, err := svc.Get("doomed"); !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("cluster survived successful delete: %v", err)
	}
}

// tickOutcome is what a tick request issued from a helper goroutine came
// back with.
type tickOutcome struct {
	code       int // -1: the transport failed before a response
	body       []byte
	retryAfter string
}

// postTick issues one tick request from its own goroutine.
func postTick(url, id string) <-chan tickOutcome {
	done := make(chan tickOutcome, 1)
	go func() {
		resp, err := http.Post(url+"/v1/clusters/"+id+"/tick", "application/json", nil)
		if err != nil {
			done <- tickOutcome{code: -1}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		done <- tickOutcome{resp.StatusCode, buf.Bytes(), resp.Header.Get("Retry-After")}
	}()
	return done
}

// waitFor polls cond until it holds; the conditions waited on here are
// counters the service publishes, not elapsed time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestShutdownInterruptsAdmittedTick pins the contract that replaced the
// "interrupted" outcome. A tick runs on its request's goroutine, so
// shutdown cannot sever a caller from a tick that is executing: the tick
// in flight when Close begins answers 200 with its real iteration even
// though the drain deadline expires under it, Close does not return
// before it has committed, and the reopened store holds it in the WAL.
// No write ends with an unknown outcome short of a transport error.
func TestShutdownInterruptsAdmittedTick(t *testing.T) {
	dir := t.TempDir()
	inj := mustChaos(t, 1, chaos.Spec{TickLatency: 1.0, TickLatencyMs: 400})
	svc, ts := newTestServer(t, service.Config{
		Shards:          1,
		WorkersPerShard: 1,
		DrainTimeout:    20 * time.Millisecond,
		Store:           openStore(t, dir),
		Chaos:           inj,
	})
	createCluster(t, ts.URL, "c1", smallSpec(t, 10))
	c, err := svc.Get("c1")
	if err != nil {
		t.Fatal(err)
	}

	done := postTick(ts.URL, "c1")
	waitFor(t, "the tick to start executing", func() bool { return inj.Counts().TickDelays == 1 })
	svc.Close() // the drain deadline (20ms) expires well inside the 400ms tick
	if got := c.Session().Ticks(); got != 1 {
		t.Fatalf("Close returned with the session at tick %d: it did not wait for the running tick", got)
	}

	select {
	case r := <-done:
		if r.code == -1 {
			t.Skip("connection failed before a response; cannot observe the reply")
		}
		if r.code != http.StatusOK {
			t.Fatalf("tick running at Close returned %d (%s), want 200", r.code, r.body)
		}
		var tick service.TickResponse
		if err := json.Unmarshal(r.body, &tick); err != nil || tick.Iteration != 0 {
			t.Fatalf("tick running at Close answered %s, want iteration 0", r.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tick request never returned after Close")
	}

	st := openStore(t, dir)
	defer st.Close()
	cs, err := st.Get("c1")
	if err != nil {
		t.Fatal(err)
	}
	scheds, err := cs.Schedules()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(scheds); got != 1 {
		t.Fatalf("reopened WAL holds %d ticks, want the one acked at Close", got)
	}
}

// TestCloseRefusesWaiters: a request still waiting for a slot when the
// drain deadline passes is refused with 503 unavailable and Retry-After 1
// — it never ran, so it is safe to retry elsewhere — while the tick
// holding the slot finishes. Driving the session through the rest of its
// budget lands on the sequential report: the refused tick left no trace.
func TestCloseRefusesWaiters(t *testing.T) {
	spec := smallSpec(t, 4)
	want := sequentialReport(t, spec)
	inj := mustChaos(t, 1, chaos.Spec{TickLatency: 1.0, TickLatencyMs: 400})
	svc, ts := newTestServer(t, service.Config{
		Shards:           1,
		WorkersPerShard:  1,
		DrainTimeout:     20 * time.Millisecond,
		AdmissionTimeout: time.Minute, // deliberately long: Close must cut the wait
		Chaos:            inj,
	})
	createCluster(t, ts.URL, "c1", spec)
	c, err := svc.Get("c1")
	if err != nil {
		t.Fatal(err)
	}

	running := postTick(ts.URL, "c1")
	waitFor(t, "the first tick to take the slot", func() bool { return inj.Counts().TickDelays == 1 })
	waiting := postTick(ts.URL, "c1")
	waitFor(t, "the second tick to wait for the slot", func() bool { return svc.Metrics().Shards[0].QueueLength == 1 })
	svc.Close()

	if r := <-running; r.code != http.StatusOK {
		t.Fatalf("tick holding the slot at Close returned %d (%s), want 200", r.code, r.body)
	}
	r := <-waiting
	var env service.ErrorEnvelope
	if err := json.Unmarshal(r.body, &env); err != nil || r.code != http.StatusServiceUnavailable || env.Code != service.CodeUnavailable {
		t.Fatalf("waiter at Close returned %d %s, want 503 with code %q", r.code, r.body, service.CodeUnavailable)
	}
	if r.retryAfter != "1" {
		t.Fatalf("refused waiter carried Retry-After %q, want 1", r.retryAfter)
	}
	sess := c.Session()
	if got := sess.Ticks(); got != 1 {
		t.Fatalf("session at tick %d after Close, want 1: the refused waiter ran", got)
	}
	for !sess.Done() {
		if _, err := sess.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sess.Report().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("report after a refused waiter differs from the sequential run")
	}
}
