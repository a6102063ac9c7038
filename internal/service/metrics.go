package service

import "time"

// Metrics is the service-wide counter snapshot GET /metrics serves.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Clusters      int     `json:"clusters"`
	Ticks         int64   `json:"ticks"`
	WhatIfEvals   int64   `json:"whatif_evals"`
	QSQueries     int64   `json:"qs_queries"`
	// AdHocQueries counts one-shot POST /v1/clusters/{id}/query requests;
	// ActiveStreams is the live standing-subscription gauge (bounded by
	// Config.MaxStreams).
	AdHocQueries  int64 `json:"adhoc_queries"`
	ActiveStreams int64 `json:"active_streams"`
	// ScoredCandidates totals the controllers' search stats across all
	// clusters: candidates fully scored through the what-if simulator
	// rather than warm-started from the cross-tick cache.
	ScoredCandidates int64 `json:"scored_candidates"`
	// DegradedClusters is the read-only-cluster gauge: clusters whose
	// durable store is failing, serving reads from the last committed
	// state while the recovery probe retries. ShedRequests totals
	// requests refused without execution (admission-deadline sheds plus
	// chaos-injected handler errors).
	DegradedClusters int64          `json:"degraded_clusters"`
	ShedRequests     int64          `json:"shed_requests"`
	Shards           []ShardMetrics `json:"shards"`
}

// ShardMetrics is one shard's slice of the snapshot. QueueLength is the
// requests waiting for one of its Workers tick slots. Tick and decision
// latencies are quantiles over the shard's recent-latency window; they
// are zero until the shard has completed a tick (for decision latencies:
// a controller-enabled tick).
type ShardMetrics struct {
	Shard            int     `json:"shard"`
	Clusters         int     `json:"clusters"`
	Workers          int     `json:"workers"`
	QueueLength      int     `json:"queue_length"`
	Ticks            int64   `json:"ticks"`
	WhatIfEvals      int64   `json:"whatif_evals"`
	ScoredCandidates int64   `json:"scored_candidates"`
	ShedRequests     int64   `json:"shed_requests"`
	TickLatencyP50Ms float64 `json:"tick_latency_p50_ms"`
	TickLatencyP99Ms float64 `json:"tick_latency_p99_ms"`
	// Decision latency is the controller's propose→apply span within a
	// tick — the slice of tick latency the incremental candidate search
	// is responsible for.
	DecisionLatencyP50Ms float64 `json:"decision_latency_p50_ms"`
	DecisionLatencyP99Ms float64 `json:"decision_latency_p99_ms"`
}

// Metrics snapshots the service's counters. Counters are read without a
// global pause, so the snapshot is approximate under concurrent traffic —
// each individual counter is still exact.
func (s *Service) Metrics() Metrics {
	m := Metrics{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		QSQueries:        s.qsQueries.get(),
		WhatIfEvals:      s.whatifEvals.get(),
		AdHocQueries:     s.queryOneShot.get(),
		ActiveStreams:    s.streams.get(),
		DegradedClusters: s.degradedGauge.get(),
		ShedRequests:     s.shedRequests.get(),
	}
	perShard := make([]int, len(s.shards))
	s.mu.RLock()
	m.Clusters = len(s.clusters)
	for _, c := range s.clusters {
		perShard[c.Shard]++
	}
	s.mu.RUnlock()
	for i, sh := range s.shards {
		sm := ShardMetrics{
			Shard:            i,
			Clusters:         perShard[i],
			Workers:          s.cfg.WorkersPerShard,
			QueueLength:      int(sh.waiting.get()),
			Ticks:            sh.ticks.get(),
			WhatIfEvals:      sh.whatifEvals.get(),
			ScoredCandidates: sh.scored.get(),
			ShedRequests:     sh.shed.get(),
		}
		if p50, p99, ok := sh.lat.quantiles(); ok {
			sm.TickLatencyP50Ms = float64(p50) / float64(time.Millisecond)
			sm.TickLatencyP99Ms = float64(p99) / float64(time.Millisecond)
		}
		if p50, p99, ok := sh.decLat.quantiles(); ok {
			sm.DecisionLatencyP50Ms = float64(p50) / float64(time.Millisecond)
			sm.DecisionLatencyP99Ms = float64(p99) / float64(time.Millisecond)
		}
		m.Ticks += sm.Ticks
		m.ScoredCandidates += sm.ScoredCandidates
		m.Shards = append(m.Shards, sm)
	}
	return m
}
