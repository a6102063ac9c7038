package tempo_test

// The resilience benchmark prices the serving layer's overload and fault
// machinery (PR-10): how fast a saturated shard refuses work, how fast a
// degraded cluster keeps serving reads, and what deterministic client
// retries cost when a tenth of all requests are shed at the door. Like
// bench_service_test.go it lives in the external test package (the
// control plane wraps the root Session handle).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tempo/internal/chaos"
	"tempo/internal/scenario"
	"tempo/internal/service"
	"tempo/internal/store"
)

// benchCluster registers spec under id over HTTP and fails on anything
// but 201 — benchmarks drive the same API surface clients use.
func benchCluster(b *testing.B, url, id string, spec *scenario.Spec) {
	b.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(service.CreateRequest{ID: id, Spec: raw})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/clusters", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		b.Fatalf("creating %s: %s: %s", id, resp.Status, raw)
	}
}

// BenchmarkResilience measures the three resilience paths end to end
// over real HTTP.
//
//   - overload-shed: a one-slot service saturated by chaos
//     tick latency must refuse overflow in bounded time — shed_ns is
//     the wall clock from request to 503 {code: overloaded}, and the
//     benchmark fails if a shed ever outlives ten times the admission
//     timeout (a shed that queues behind execution is an outage, not
//     load shedding).
//   - degraded-reads: a cluster whose WAL is torn keeps answering QS
//     reads from its last committed state; reads/sec is the read
//     throughput while degraded.
//   - retry-convergence: a full 16-cluster drive with 10% of requests
//     shed at the door by the chaos handler; the driver's deterministic
//     backoff must converge all 16 clusters to byte-identical reports in
//     exactly 48 ticks (drift means lost or doubled work), with the retry
//     count reported for context.
func BenchmarkResilience(b *testing.B) {
	b.Run("overload-shed", benchOverloadShed)
	b.Run("degraded-reads", benchDegradedReads)
	b.Run("retry-convergence", benchRetryConvergence)
}

func benchOverloadShed(b *testing.B) {
	const admission = 20 * time.Millisecond
	inj, err := chaos.New(1, chaos.Spec{TickLatency: 1.0, TickLatencyMs: 100})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := service.New(service.Config{
		Shards: 1, WorkersPerShard: 1,
		AdmissionTimeout: admission,
		Chaos:            inj,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer func() { ts.Close(); svc.Close() }()

	spec, err := service.SmallSpec()
	if err != nil {
		b.Fatal(err)
	}
	spec.Iterations = 10_000 // never completes within the benchmark
	benchCluster(b, ts.URL, "c1", spec)

	var sheds, ok int
	var shedWait time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each round offers more concurrent ticks than the one slot can
		// run; the overflow must come back 503 overloaded within the
		// admission deadline while the admitted ticks execute.
		const wave = 6
		type outcome struct {
			code int
			wait time.Duration
		}
		results := make(chan outcome, wave)
		for j := 0; j < wave; j++ {
			go func() {
				start := time.Now()
				resp, err := http.Post(ts.URL+"/v1/clusters/c1/tick", "application/json", nil)
				if err != nil {
					results <- outcome{code: -1}
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				results <- outcome{code: resp.StatusCode, wait: time.Since(start)}
			}()
		}
		for j := 0; j < wave; j++ {
			r := <-results
			switch r.code {
			case http.StatusOK:
				ok++
			case http.StatusServiceUnavailable:
				sheds++
				shedWait += r.wait
				// A shed is only load shedding if it is prompt: the
				// refusal must not serialize behind the 100ms executing
				// tick. Generous 10x headroom absorbs HTTP round-trip
				// and scheduler noise on loaded CI runners.
				if r.wait > 10*admission {
					b.Fatalf("shed took %v, admission timeout is %v", r.wait, admission)
				}
			default:
				b.Fatalf("unexpected tick status %d", r.code)
			}
		}
	}
	b.StopTimer()
	if sheds == 0 {
		b.Fatal("saturated service never shed a request")
	}
	if ok == 0 {
		b.Fatal("saturated service never admitted a request")
	}
	shedNs := float64(shedWait.Nanoseconds()) / float64(sheds)
	b.ReportMetric(shedNs, "shed_ns")
}

func benchDegradedReads(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := service.New(service.Config{
		Store: st, SnapshotEvery: 2,
		RecoveryProbeInterval: time.Hour, // no background recovery mid-measurement
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer func() { ts.Close(); svc.Close() }()

	spec, err := service.SmallSpec()
	if err != nil {
		b.Fatal(err)
	}
	benchCluster(b, ts.URL, "c1", spec)
	c, err := svc.Get("c1")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := svc.Tick(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
	// Tear the WAL and trip degraded mode with one refused tick.
	cs, err := st.Get("c1")
	if err != nil {
		b.Fatal(err)
	}
	cs.InjectFault(cs.WALSize())
	resp, err := http.Post(ts.URL+"/v1/clusters/c1/tick", "application/json", nil)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		b.Fatalf("tick on torn WAL = %d, want 503", resp.StatusCode)
	}
	if !c.Degraded() {
		b.Fatal("cluster not degraded after WAL tear")
	}

	const reads = 200
	var total int
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for j := 0; j < reads; j++ {
			resp, err := http.Get(ts.URL + "/v1/clusters/c1/qs")
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("qs read on degraded cluster = %d, want 200", resp.StatusCode)
			}
			total++
		}
	}
	wall := time.Since(start)
	b.StopTimer()
	perSec := float64(total) / wall.Seconds()
	b.ReportMetric(perSec, "reads/sec")
}

func benchRetryConvergence(b *testing.B) {
	const clusters = 16
	var last *service.DriveReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj, err := chaos.New(7, chaos.Spec{HandlerError: 0.10})
		if err != nil {
			b.Fatal(err)
		}
		svc, err := service.New(service.Config{Chaos: inj})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		rep, err := service.Drive(ts.URL, service.DriveOptions{
			Clusters: clusters,
			QSEvery:  2, WhatIfEvery: 3,
			Verify:  true,
			Retries: 8, RetryBase: 2 * time.Millisecond, RetryMax: 50 * time.Millisecond, RetrySeed: 7,
		})
		ts.Close()
		svc.Close()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Clusters != clusters || rep.Verified != clusters {
			b.Fatalf("only %d/%d cluster reports verified under injected sheds", rep.Verified, rep.Clusters)
		}
		if rep.Ticks != 3*clusters {
			b.Fatalf("drive ran %d ticks, want %d: retries lost or doubled work", rep.Ticks, 3*clusters)
		}
		if rep.Retries == 0 {
			b.Fatal("10%% handler sheds never forced a retry — the fault injector is not wired")
		}
		last = rep
	}
	b.StopTimer()
	b.ReportMetric(float64(last.Retries), "retries")
	b.ReportMetric(last.TicksPerSec, "ticks/sec")
}
