package main

// metricDef names one metric and its unit; an end-to-end metric also says
// which direction is better and the share of the parent's median by which
// it may worsen. BENCHMARK.json declares the same; a test holds the two
// together.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"; end-to-end only
	bound      float64 // end-to-end only
}

// measured is one metric's value and the number of samples behind it.
type measured struct {
	v float64
	n int
}

// endToEnd is what a user of tempod sees. Every workload reports every
// one of them; "op" is the workload's primary operation — a tick over
// HTTP, or on restart one cold recovery of the data dir.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"heap_mb_end", "MiB", "lower", 0.25},
	{"qs_p50_ms", "ms", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"whatif_p50_ms", "ms", "lower", 0.25},
}

// perLayer is the traced run's output, one prefix per module.
var perLayer = []metricDef{
	{name: "service.http_tick_p50_us", unit: "us"},
	{name: "service.handler_tick_p50_us", unit: "us"},
	{name: "service.tick_p50_us", unit: "us"},
	{name: "service.http_floor_us", unit: "us"},
	{name: "service.http_self_us", unit: "us"},
	{name: "service.handler_self_us", unit: "us"},
	{name: "service.admission_self_us", unit: "us"},
	{name: "service.encode_p50_us", unit: "us"},
	{name: "service.create_p50_ms", unit: "ms"},
	{name: "service.shed_ops", unit: "count"},
	{name: "service.server_tick_p50_ms", unit: "ms"},
	{name: "service.server_tick_p99_ms", unit: "ms"},
	{name: "service.tick_growth_ratio", unit: "ratio"},
	{name: "service.op_p99_ms", unit: "ms"},
	{name: "service.tick_p50_quiet_ms", unit: "ms"},
	{name: "service.tick_p50_busy_ms", unit: "ms"},
	{name: "service.tick_p95_quiet_ms", unit: "ms"},
	{name: "service.tick_p95_busy_ms", unit: "ms"},
	{name: "service.interference_p95_ratio", unit: "ratio"},
	{name: "service.reads_per_s", unit: "1/s"},
	{name: "service.report_busy_p50_ms", unit: "ms"},
	{name: "service.report_p50_ms", unit: "ms"},
	{name: "store.encode_p50_us", unit: "us"},
	{name: "store.wal_bytes_per_tick", unit: "bytes"},
	{name: "store.append_p50_us", unit: "us"},
	{name: "store.fsync_p50_us", unit: "us"},
	{name: "store.snapshot_write_p50_us", unit: "us"},
	{name: "store.snapshot_bytes_end", unit: "bytes"},
	{name: "store.data_bytes_per_tick", unit: "bytes"},
	{name: "store.open_ms", unit: "ms"},
	{name: "store.schedules_ms", unit: "ms"},
	{name: "store.load_snapshot_p50_us", unit: "us"},
	{name: "store.decode_mb_per_s", unit: "MiB/s"},
	{name: "session.tick_p50_us", unit: "us"},
	{name: "session.tick_mean_us", unit: "us"},
	{name: "session.qs_p50_us", unit: "us"},
	{name: "session.query_p50_us", unit: "us"},
	{name: "session.whatif_p50_us", unit: "us"},
	{name: "session.report_p50_us", unit: "us"},
	{name: "session.report_bytes_end", unit: "bytes"},
	{name: "scenario.build_p50_ms", unit: "ms"},
	{name: "scenario.snapshot_p50_us", unit: "us"},
	{name: "scenario.resume_p50_ms", unit: "ms"},
	{name: "scenario.resume_nosnap_p50_ms", unit: "ms"},
	{name: "core.decision_p50_us", unit: "us"},
	{name: "core.decision_share", unit: "ratio"},
	{name: "core.candidates", unit: "count"},
	{name: "core.fully_scored", unit: "count"},
	{name: "core.warm_started", unit: "count"},
	{name: "core.pruned", unit: "count"},
	{name: "whatif.sims_run", unit: "count"},
	{name: "whatif.sims_reused", unit: "count"},
	{name: "whatif.reuse_ratio", unit: "ratio"},
	{name: "whatif.us_per_sim", unit: "us"},
	{name: "cluster.events_per_tick", unit: "count"},
	{name: "cluster.tasks_per_tick", unit: "count"},
	{name: "cluster.jobs_per_tick", unit: "count"},
	{name: "cluster.observe_self_us", unit: "us"},
	{name: "cluster.us_per_kevent", unit: "us"},
	{name: "qs.templates", unit: "count"},
	{name: "qs.eval_p50_us", unit: "us"},
	{name: "qs.accumulate_p50_us", unit: "us"},
	{name: "qs.window_p50_us", unit: "us"},
	{name: "query.parse_p50_us", unit: "us"},
	{name: "query.compile_p50_us", unit: "us"},
	{name: "query.push_tick_p50_us", unit: "us"},
	{name: "query.result_rows", unit: "count"},
	{name: "proc.allocs_per_op", unit: "count"},
	{name: "proc.kb_per_op", unit: "KiB"},
	{name: "proc.gc_cycles_per_kop", unit: "count"},
	{name: "proc.gc_pause_us_per_op", unit: "us"},
	{name: "proc.rss_mb_peak", unit: "MiB"},
	{name: "proc.cpu_user_ms_per_op", unit: "ms"},
	{name: "proc.cpu_sys_ms_per_op", unit: "ms"},
	{name: "trace.coverage", unit: "ratio"},
	{name: "trace.overhead_ratio", unit: "ratio"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEndMetrics reports a p50 latency over the run's pooled samples and
// every other metric as the median of its per-epoch values.
func (r *run) endToEndMetrics() map[string]measured {
	m := map[string]measured{}
	for name, s := range map[string]samples{"op_p50_ms": r.opLat, "qs_p50_ms": r.qsLat, "query_p50_ms": r.queryLat, "whatif_p50_ms": r.whatifLat} {
		m[name] = measured{ms(s.percentile(0.50)), len(s)}
	}
	for name, vs := range r.e2e {
		m[name] = measured{medianFloat(vs), len(vs)}
	}
	return m
}

func (r *run) layerMetrics(l *layerStats) map[string]measured {
	p50us := func(name string) measured {
		s := l.lat[name]
		return measured{us(s.percentile(0.50)), len(s)}
	}
	p50ms := func(name string) measured {
		s := l.lat[name]
		return measured{ms(s.percentile(0.50)), len(s)}
	}
	ticks := float64(l.ticks)
	perTick := func(n int64) measured { return measured{ratio(float64(n), ticks), int(l.ticks)} }
	ops := int(r.opsN)

	httpTick, handlerTick, serviceTick := p50us("http.tick"), p50us("handler.tick"), p50us("service.tick")
	// A depth's self time is the median of the per-tick differences to
	// the next depth: the twins run the same tick, so pairing removes the
	// spread between ticks, which on the heavy specs dwarfs the layer.
	selfUs := func(outer, inner samples) measured {
		d := outer.minus(inner)
		return measured{us(d.percentile(0.50)), len(d)}
	}
	sessionTick, decision, qsEval := p50us("session.tick"), p50us("core.decision"), p50us("qs.eval")
	observeSelf := measured{us(l.observeSelf.percentile(0.50)), len(l.observeSelf)}
	eventsPerTick := ratio(float64(l.events), ticks)
	perOp := func(v float64) measured { return measured{ratio(v, float64(r.opsN)), ops} }

	// Stage medians of the replica, weighted by how often each stage
	// runs; on an in-memory workload the real tick has no store stages.
	stages := sessionTick.v
	if r.w.durable {
		stages += p50us("store.append").v + (p50us("scenario.snapshot").v+p50us("store.snapshot_write").v)/snapshotEvery
	}

	m := map[string]measured{
		"service.http_tick_p50_us":    httpTick,
		"service.handler_tick_p50_us": handlerTick,
		"service.tick_p50_us":         serviceTick,
		"service.http_floor_us":       p50us("http.healthz"),
		"service.http_self_us":        selfUs(l.lat["http.tick"], l.lat["handler.tick"]),
		"service.handler_self_us":     selfUs(l.lat["handler.tick"], l.lat["service.tick"]),
		"service.admission_self_us":   selfUs(l.lat["service.tick"], l.replicaTick),
		"service.encode_p50_us":       p50us("service.encode"),
		"service.create_p50_ms":       p50ms("service.create"),
		"service.shed_ops":            {float64(r.shed), r.epochs},
		"service.server_tick_p50_ms":  {medianFloat(r.serverP50), len(r.serverP50)},
		"service.server_tick_p99_ms":  {medianFloat(r.serverP99), len(r.serverP99)},
		"service.tick_growth_ratio":   {ratio(ms(r.lastEighth.percentile(0.50)), ms(r.firstEighth.percentile(0.50))), len(r.lastEighth)},
		"service.op_p99_ms":           {ms(r.opLat.percentile(0.99)), len(r.opLat)},

		"service.tick_p50_quiet_ms":      {ms(r.quiet.percentile(0.50)), len(r.quiet)},
		"service.tick_p50_busy_ms":       {ms(r.busy.percentile(0.50)), len(r.busy)},
		"service.tick_p95_quiet_ms":      {ms(r.quiet.percentile(0.95)), len(r.quiet)},
		"service.tick_p95_busy_ms":       {ms(r.busy.percentile(0.95)), len(r.busy)},
		"service.interference_p95_ratio": {ratio(ms(r.busy.percentile(0.95)), ms(r.quiet.percentile(0.95))), len(r.busy)},
		"service.reads_per_s":            {ratio(float64(r.busyReads), r.busyTime.Seconds()), int(r.busyReads)},
		"service.report_busy_p50_ms":     {ms(r.busyReport.percentile(0.50)), len(r.busyReport)},
		"service.report_p50_ms":          {ms(r.reportLat.percentile(0.50)), len(r.reportLat)},

		"store.encode_p50_us":         p50us("store.encode"),
		"store.wal_bytes_per_tick":    perTick(l.walBytes),
		"store.append_p50_us":         p50us("store.append"),
		"store.fsync_p50_us":          p50us("store.fsync"),
		"store.snapshot_write_p50_us": p50us("store.snapshot_write"),
		"store.snapshot_bytes_end":    {float64(l.snapshotBytes), 1},
		"store.data_bytes_per_tick":   {ratio(float64(r.dataBytes), float64(r.dataTicks)), int(r.dataTicks)},
		"store.open_ms":               {l.openMs, 1},
		"store.schedules_ms":          {l.schedulesMs, len(l.lat["store.schedules"])},
		"store.load_snapshot_p50_us":  p50us("store.load_snapshot"),
		"store.decode_mb_per_s":       {l.decodeMBPerS, len(l.lat["store.schedules"])},

		"session.tick_p50_us":           sessionTick,
		"session.tick_mean_us":          {ratio(float64(l.sessionTickNs)/1e3, ticks), int(l.ticks)},
		"session.qs_p50_us":             p50us("session.qs"),
		"session.query_p50_us":          p50us("session.query"),
		"session.whatif_p50_us":         p50us("session.whatif"),
		"session.report_p50_us":         p50us("session.report"),
		"session.report_bytes_end":      {float64(l.reportBytes), 1},
		"scenario.build_p50_ms":         p50ms("scenario.build"),
		"scenario.snapshot_p50_us":      p50us("scenario.snapshot"),
		"scenario.resume_p50_ms":        p50ms("scenario.resume"),
		"scenario.resume_nosnap_p50_ms": p50ms("scenario.resume_nosnap"),

		"core.decision_p50_us": decision,
		"core.decision_share":  {ratio(float64(l.decisionNs), float64(l.sessionTickNs)), int(l.ticks)},
		"core.candidates":      perTick(l.candidates),
		"core.fully_scored":    perTick(l.fullyScored),
		"core.warm_started":    perTick(l.warmStarted),
		"core.pruned":          perTick(l.pruned),
		"whatif.sims_run":      perTick(l.simsRun),
		"whatif.sims_reused":   perTick(l.simsReused),
		"whatif.reuse_ratio":   {ratio(float64(l.simsReused), float64(l.simsRun+l.simsReused)), int(l.simsRun + l.simsReused)},
		"whatif.us_per_sim":    {ratio(float64(l.decisionNs)/1e3, float64(l.simsRun)), int(l.simsRun)},

		"cluster.events_per_tick": perTick(l.events),
		"cluster.tasks_per_tick":  perTick(l.tasks),
		"cluster.jobs_per_tick":   perTick(l.jobs),
		"cluster.observe_self_us": observeSelf,
		"cluster.us_per_kevent":   {ratio(observeSelf.v, eventsPerTick/1000), observeSelf.n},

		"qs.templates":           {float64(l.templates), 1},
		"qs.eval_p50_us":         qsEval,
		"qs.accumulate_p50_us":   p50us("qs.accumulate"),
		"qs.window_p50_us":       p50us("qs.window"),
		"query.parse_p50_us":     p50us("query.parse"),
		"query.compile_p50_us":   p50us("query.compile"),
		"query.push_tick_p50_us": p50us("query.push_tick"),
		"query.result_rows":      {float64(l.resultRows), 1},

		// Totals over the windows, per operation: the windows are as many
		// as fit --seconds, so a bare total says how fast the box was.
		"proc.allocs_per_op":      perOp(float64(r.window.mallocs)),
		"proc.kb_per_op":          perOp(float64(r.window.allocBytes) / 1024),
		"proc.gc_cycles_per_kop":  perOp(1000 * float64(r.window.gcCycles)),
		"proc.gc_pause_us_per_op": perOp(us(r.window.gcPause)),
		"proc.rss_mb_peak":        {float64(r.window.maxRSSBytes) / (1 << 20), r.epochs},
		"proc.cpu_user_ms_per_op": perOp(ms(r.window.user)),
		"proc.cpu_sys_ms_per_op":  perOp(ms(r.window.sys)),

		"trace.coverage":       {ratio(stages, serviceTick.v), serviceTick.n},
		"trace.overhead_ratio": {ratio(httpTick.v, us(l.plainHTTP.percentile(0.50))), len(l.plainHTTP)},
	}
	return m
}
