package tempo_test

// The serving-layer benchmark lives in the external test package: the
// control plane (internal/service) wraps the root package's Session
// handle, so an in-package benchmark would be an import cycle.

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"tempo/internal/service"
)

// BenchmarkServiceThroughput measures the sharded control plane end to
// end over real HTTP: N clusters created from service.SmallSpec (the
// preset `tempoctl load` uses by default) and driven through their full
// control-loop budgets with interleaved tick, QS, and what-if traffic. At 100 clusters every per-cluster report
// is verified byte-identical to the scenario run sequentially — the
// acceptance criterion — so the reported throughput is the throughput of
// provably deterministic execution; 1000 clusters measures scale. Each
// cluster's budget is three ticks, two QS reads and one what-if call, and
// the drive's counts must match that exactly: lost or doubled requests are
// a serving bug, whatever the timing.
func BenchmarkServiceThroughput(b *testing.B) {
	for _, clusters := range []int{100, 1000} {
		verify := clusters <= 100
		b.Run(fmt.Sprintf("clusters=%d", clusters), func(b *testing.B) {
			var last *service.DriveReport
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				svc, err := service.New(service.Config{})
				if err != nil {
					b.Fatal(err)
				}
				ts := httptest.NewServer(svc.Handler())
				rep, err := service.Drive(ts.URL, service.DriveOptions{
					Clusters:    clusters,
					QSEvery:     2,
					WhatIfEvery: 3,
					Verify:      verify,
				})
				ts.Close()
				svc.Close()
				if err != nil {
					b.Fatal(err)
				}
				if rep.Clusters != clusters || rep.Ticks != 3*clusters || rep.QSQueries != 2*clusters || rep.WhatIfCalls != clusters {
					b.Fatalf("drive counts: %d clusters, %d ticks, %d qs, %d what-if; want %d, %d, %d, %d",
						rep.Clusters, rep.Ticks, rep.QSQueries, rep.WhatIfCalls, clusters, 3*clusters, 2*clusters, clusters)
				}
				if verify && rep.Verified != clusters {
					b.Fatalf("only %d/%d cluster reports verified", rep.Verified, clusters)
				}
				last = rep
			}
			b.ReportMetric(last.TicksPerSec, "ticks/sec")
			b.ReportMetric(last.ClustersDone, "clusters/sec")
		})
	}
}
