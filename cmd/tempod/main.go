// Command tempod is Tempo's serving daemon: a sharded control plane that
// hosts many independent tenant clusters — each a full control loop
// (workload, schedule stream, incremental QS accumulators, What-if Model)
// — behind an HTTP/JSON API.
//
// Usage:
//
//	tempod -addr :8080 -shards 4 -workers 2
//	tempod -addr :8080 -data /var/lib/tempod   # durable control plane
//
// Create a cluster from a scenario spec, then drive it:
//
//	curl -X POST localhost:8080/v1/clusters -H 'Content-Type: application/json' \
//	     -d '{"id":"c1","spec":'"$(cat spec.json)"'}'
//	curl -X POST localhost:8080/v1/clusters/c1/tick
//	curl 'localhost:8080/v1/clusters/c1/qs?from=0s&to=30m'
//	curl -X POST localhost:8080/v1/clusters/c1/query -H 'Content-Type: application/json' \
//	     -d '{"version":1,"source":"jobs","ops":[{"op":"group_by","by":["tenant"]},{"op":"aggregate","aggs":[{"fn":"count"}]}]}'
//	curl -N 'localhost:8080/v1/clusters/c1/query/stream?plan=%7B%22version%22%3A1%2C%22source%22%3A%22events%22%7D'
//	curl -X POST localhost:8080/v1/clusters/c1/whatif -H 'Content-Type: application/json' \
//	     -d '{"candidates":[{"deadline":{"weight":3}}]}'
//	curl localhost:8080/v1/clusters/c1/report
//	curl localhost:8080/v1/metrics
//
// Clusters are pinned to shards by id hash; a tick runs on its request's
// goroutine inside one of its shard's -workers slots, so tick concurrency
// is bounded by shards × workers no matter how many clusters are
// resident. Ticks on one cluster are serialized; reports remain
// bit-identical to sequential scenario runs (`tempoctl load` asserts
// this under concurrent traffic).
//
// With -data set, every committed tick's schedule records are logged to
// a per-cluster WAL and the control loop is snapshotted periodically; a
// crashed or killed tempod recovers every cluster on restart to a
// trajectory byte-identical to an uninterrupted run (see README,
// "Durability").
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tempo/internal/chaos"
	"tempo/internal/service"
	"tempo/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		shards   = flag.Int("shards", 4, "cluster shards")
		workers  = flag.Int("workers", 2, "ticks one shard runs at once; requests beyond it wait, bounded by -admission-timeout")
		par      = flag.Int("parallelism", 1, "per-cluster what-if worker pool (results identical for any value)")
		pprofSrv = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")

		maxStreams = flag.Int("max-streams", 64, "concurrent standing query subscriptions (SSE) across all clusters")
		heartbeat  = flag.Duration("stream-heartbeat", 15*time.Second, "idle keep-alive interval on query streams")

		dataDir    = flag.String("data", "", "data directory for durable cluster state (snapshot + WAL); empty disables durability")
		fsyncEvery = flag.Duration("fsync-interval", 50*time.Millisecond, "WAL group-commit window (with -data); 0 fsyncs every append")
		fsyncBytes = flag.Int("fsync-bytes", 1<<20, "WAL dirty-byte threshold forcing an fsync (with -data)")
		snapEvery  = flag.Int("snapshot-every", 8, "control-loop snapshot period in ticks (with -data)")
		drain      = flag.Duration("drain-timeout", 5*time.Second, "how long shutdown lets requests keep waiting for a tick slot before refusing them with 503 unavailable; running ticks always finish")

		reqTimeout = flag.Duration("request-timeout", 60*time.Second, "per-request read/write deadline on the API listener")
		admTimeout = flag.Duration("admission-timeout", time.Second, "max wait for a free tick slot on the cluster's shard before a tick or delete is shed with 503 overloaded")

		chaosSeed = flag.Int64("chaos-seed", 0, "seed for deterministic fault injection; 0 disables chaos unless -chaos-spec is set")
		chaosSpec = flag.String("chaos-spec", "", "JSON fault-schedule spec file for chaos injection (implies chaos on, even with seed 0)")
	)
	flag.Parse()
	err := run(runConfig{
		addr: *addr, shards: *shards, workers: *workers,
		parallelism: *par, pprofAddr: *pprofSrv,
		maxStreams: *maxStreams, streamHeartbeat: *heartbeat,
		dataDir: *dataDir, fsyncInterval: *fsyncEvery, fsyncBytes: *fsyncBytes,
		snapshotEvery: *snapEvery, drainTimeout: *drain,
		requestTimeout: *reqTimeout, admissionTimeout: *admTimeout,
		chaosSeed: *chaosSeed, chaosSpecPath: *chaosSpec,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tempod:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	addr            string
	shards, workers int
	parallelism     int
	pprofAddr       string
	maxStreams      int
	streamHeartbeat time.Duration

	dataDir       string
	fsyncInterval time.Duration
	fsyncBytes    int
	snapshotEvery int
	drainTimeout  time.Duration

	requestTimeout   time.Duration
	admissionTimeout time.Duration
	chaosSeed        int64
	chaosSpecPath    string
}

func run(cfg runConfig) error {
	var inj *chaos.Injector
	if cfg.chaosSeed != 0 || cfg.chaosSpecPath != "" {
		spec := chaos.Default()
		if cfg.chaosSpecPath != "" {
			var err error
			spec, err = chaos.LoadSpecFile(cfg.chaosSpecPath)
			if err != nil {
				return err
			}
		}
		var err error
		inj, err = chaos.New(cfg.chaosSeed, spec)
		if err != nil {
			return err
		}
		fmt.Printf("tempod: CHAOS ENABLED (seed %d) — injecting deterministic faults\n", inj.Seed())
	}

	// The API listener opens BEFORE recovery so liveness probes get answers
	// during a long WAL replay; the gate serves "starting" until the real
	// handler is installed, and /v1/readyz stays 503 for that window.
	gate := service.NewGate()
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           gate,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       cfg.requestTimeout,
		WriteTimeout:      cfg.requestTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	var st *store.Store
	if cfg.dataDir != "" {
		st, err = store.Open(cfg.dataDir, store.Options{
			SyncInterval: cfg.fsyncInterval,
			SyncBytes:    cfg.fsyncBytes,
			Stall: func() {
				if d := inj.FsyncStall(); d > 0 {
					time.Sleep(d)
				}
			},
		})
		if err != nil {
			srv.Close()
			return err
		}
	}
	svc, err := service.New(service.Config{
		Shards:           cfg.shards,
		WorkersPerShard:  cfg.workers,
		Parallelism:      cfg.parallelism,
		MaxStreams:       cfg.maxStreams,
		StreamHeartbeat:  cfg.streamHeartbeat,
		Store:            st,
		SnapshotEvery:    cfg.snapshotEvery,
		DrainTimeout:     cfg.drainTimeout,
		AdmissionTimeout: cfg.admissionTimeout,
		Chaos:            inj,
	})
	if err != nil {
		srv.Close()
		if st != nil {
			st.Close()
		}
		return err
	}
	gate.Set(svc.Handler())
	// Deferred last: runs after the API and pprof listeners are down, so
	// no new ticks can arrive while it waits for the running ones and
	// flushes + closes the store.
	defer svc.Close()
	if st != nil {
		fmt.Printf("tempod: durable state in %s (%d clusters recovered)\n", cfg.dataDir, len(svc.List()))
	}

	var pprofServer *http.Server
	if cfg.pprofAddr != "" {
		// Profiling stays off the service listener (and off by default):
		// tempod's API may face untrusted clients, while /debug/pprof is an
		// operator tool. Perf work measures here instead of guessing —
		//   go tool pprof http://<pprof-addr>/debug/pprof/profile
		//   go tool pprof http://<pprof-addr>/debug/pprof/heap
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// Long trace/profile downloads need a generous write window; the
		// header/read limits still shut out idle or slow-loris peers.
		pprofServer = &http.Server{
			Addr:              cfg.pprofAddr,
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      10 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			if err := pprofServer.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "tempod: pprof listener:", err)
			}
		}()
		fmt.Printf("tempod: pprof on %s\n", cfg.pprofAddr)
	}

	fmt.Printf("tempod: serving on %s (%d shards x %d workers)\n", cfg.addr, cfg.shards, cfg.workers)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if pprofServer != nil {
			pprofServer.Close()
		}
		return err
	case sig := <-sigc:
		// Shutdown order: stop the API listener (no new requests), close
		// the pprof listener, then the deferred svc.Close waits for running
		// ticks and flushes durable state.
		fmt.Printf("tempod: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if pprofServer != nil {
			if err := pprofServer.Close(); err != nil {
				return err
			}
		}
		return nil
	}
}
