package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"

	"tempo/internal/scenario"
	"tempo/internal/service"
)

// loadCmd stress-drives a tempod control plane: it creates -clusters
// clusters from a scenario spec (each with its own seed), drives
// concurrent tick, QS, ad-hoc query and what-if traffic across all of
// them, and with -verify asserts that sharded, interleaved execution
// changed nothing: every cluster's report must be byte-identical to the
// same scenario run sequentially in process. It is both the serving
// layer's determinism gate (CI runs it at 100 clusters) and its
// throughput probe. With -addr empty it starts an in-process service on a
// loopback listener, so one command exercises the full HTTP stack. Client
// concurrency, probe cadence and the retry policy are the driver's
// defaults; a mismatched report is a non-zero exit.
func loadCmd(args []string) error {
	fs := flag.NewFlagSet("tempoctl load", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "", "tempod base URL (empty = start an in-process service)")
		clusters = fs.Int("clusters", 100, "clusters to create and drive")
		specPath = fs.String("spec", "", "scenario spec to derive clusters from (empty = builtin loadgen-small preset)")
		rate     = fs.Float64("rate", 0, "aggregate tick-request rate cap per second (0 = unthrottled)")
		verify   = fs.Bool("verify", true, "compare every report against a sequential scenario run, byte for byte")
		asJSON   = fs.Bool("json", false, "emit the drive report as JSON")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError exits instead
	if *clusters <= 0 {
		return fmt.Errorf("non-positive -clusters %d", *clusters)
	}
	var baseSpec *scenario.Spec
	var err error
	if *specPath != "" {
		baseSpec, err = scenario.LoadFile(*specPath)
	} else {
		baseSpec, err = service.SmallSpec()
	}
	if err != nil {
		return err
	}
	if *addr == "" {
		const shards, workers = 4, 2
		svc, err := service.New(service.Config{Shards: shards, WorkersPerShard: workers})
		if err != nil {
			return err
		}
		defer svc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: svc.Handler()}
		go srv.Serve(ln) //nolint:errcheck // closed on exit
		defer srv.Close()
		*addr = "http://" + ln.Addr().String()
		fmt.Printf("load: in-process tempod on %s (%d shards x %d workers)\n", *addr, shards, workers)
	}

	rep, err := service.Drive(*addr, service.DriveOptions{
		Clusters:    *clusters,
		BaseSpec:    baseSpec,
		TickRate:    *rate,
		QSEvery:     2,
		QueryEvery:  2,
		WhatIfEvery: 3,
		Verify:      *verify,
		Retries:     3,
		RetrySeed:   1,
	})
	if err != nil {
		return err
	}
	if *asJSON {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	fmt.Printf("load: %d clusters x %d iterations (%s): %d ticks, %d qs queries, %d ad-hoc queries, %d what-if calls in %.2fs\n",
		rep.Clusters, rep.Iterations, baseSpec.Name, rep.Ticks, rep.QSQueries, rep.QueryCalls, rep.WhatIfCalls, rep.WallSeconds)
	fmt.Printf("load: %.1f ticks/sec, %.1f clusters/sec\n", rep.TicksPerSec, rep.ClustersDone)
	if rep.Retries > 0 {
		fmt.Printf("load: %d requests shed and retried\n", rep.Retries)
	}
	if *verify {
		fmt.Printf("load: %d/%d reports bit-identical to sequential runs\n", rep.Verified, rep.Clusters)
	}
	return nil
}
