package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tempo"
	"tempo/internal/qs"
	"tempo/internal/scenario"
	"tempo/internal/service"
	"tempo/internal/store"
)

// The layered pass is the traced run's second half. Layers are measured
// from outside, by timing calls into their public functions; spans inside
// the program are a later change. For every spec of the workload's layer
// population it runs the same trajectory five times over, one tick at a
// time on one goroutine:
//
//   - boundary spans around the real service: the tick entered over
//     loopback HTTP, through Handler().ServeHTTP with a recorder, and
//     through Service.Tick, each on its own twin cluster (plus one more
//     HTTP twin ticked without a span, for the tracing overhead);
//   - a replica of service.execTick assembled from public calls on a
//     harness-owned tempo.Session and store.ClusterStore — session tick,
//     WAL append, and every 8th tick snapshot and snapshot write — with
//     the qs, store, cluster and query probes beside it.
//
// Twins share spec and seed, so the replica's report must equal each
// service twin's report byte for byte; that check is what licenses
// reading the replica's stage times as the program's.

// snapshotEvery is service.Config's default snapshot cadence, which the
// replica follows.
const snapshotEvery = 8

// depthSuffixes name a spec's twin clusters in the real service.
var depthSuffixes = []string{"-http", "-plain", "-handler", "-direct"}

// layerStats is what the layered pass measured.
type layerStats struct {
	tr  *tracer
	lat map[string]samples // by span name
	// plainHTTP is the untraced twin's HTTP tick latency.
	plainHTTP samples
	// replicaTick is the replica's share of a tick that the real service
	// also does: the whole root on a durable workload, the session tick
	// alone on an in-memory one.
	replicaTick samples
	// observeSelf is, per tick, the session tick minus the decision and
	// minus the QS evaluation of the tick's schedule: what is left is the
	// simulator observing the interval.
	observeSelf samples

	ticks                      int64
	events, tasks, jobs        int64
	walBytes                   int64
	sessionTickNs, decisionNs  int64
	candidates, fullyScored    int64
	warmStarted, pruned        int64
	simsRun, simsReused        int64
	templates                  int
	resultRows                 int
	reportBytes, snapshotBytes int64
	openMs, schedulesMs        float64
	decodeMBPerS               float64
	ops                        int       // next free op id
	lastEnd                    time.Time // when the latest span ended
}

// span times fn as a span of op and keeps the duration as a sample of name.
func (l *layerStats) span(op int, name, parent string, fn func()) time.Duration {
	var start time.Time
	start, l.lastEnd = l.tr.timed(op, name, parent, fn)
	d := l.lastEnd.Sub(start)
	l.lat[name] = append(l.lat[name], d)
	return d
}

func (l *layerStats) nextOp() int {
	l.ops++
	return l.ops - 1
}

// replica is the harness-owned twin of one cluster.
type replica struct {
	def       *clusterDef
	sess      *tempo.Session
	cs        *store.ClusterStore
	templates []qs.Template
	plan      *tempo.QueryPlan
	runner    *tempo.QueryRunner
	direct    *service.Cluster
	cfgs      []tempo.ClusterConfig
	opBase    int
	encBuf    []byte
}

var sessionOptions = tempo.ScenarioOptions{Parallelism: 1, Clock: time.Now}

func (r *run) layeredPass() (*layerStats, error) {
	// Epoch 999 keeps the layer population's seeds apart from the
	// measured epochs'.
	pop, err := populate(r.w.layer, r.opt.seed, 999)
	if err != nil {
		return nil, err
	}
	l := &layerStats{tr: newTracer(), lat: map[string]samples{}}

	svcDir := ""
	if r.w.durable {
		svcDir = filepath.Join(r.opt.tmp, "layer-service-"+r.w.name)
	}
	replicaDir := filepath.Join(r.opt.tmp, "layer-replica-"+r.w.name)
	for _, dir := range []string{svcDir, replicaDir} {
		if dir == "" {
			continue
		}
		if err := freshDir(dir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	srv, err := startServer(svcDir)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	hst, err := store.Open(replicaDir, storeOptions)
	if err != nil {
		return nil, err
	}
	defer hst.Close()
	cl := newClient(srv.base)
	defer r.absorb(cl)

	reps, err := r.buildReplicas(l, srv, hst, cl, pop)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 200; i++ {
		op := l.nextOp()
		l.span(op, "http.healthz", "", func() { cl.call("healthz", http.MethodGet, "/v1/healthz", nil) })
	}

	handler := srv.svc.Handler()
	most := 0
	for i := range pop {
		most = max(most, pop[i].ticks)
	}
	for t := 0; t < most; t++ {
		for _, rp := range reps {
			if t >= rp.def.ticks {
				continue
			}
			if err := r.layeredTick(l, srv, cl, handler, rp, t); err != nil {
				return nil, err
			}
		}
	}

	// The licence: every service twin's report equals the replica's.
	for _, rp := range reps {
		want, err := rp.sess.Report().MarshalCanonical()
		if err != nil {
			return nil, err
		}
		l.reportBytes += int64(len(want))
		for _, sfx := range depthSuffixes {
			got, _, ok := cl.report(rp.def.id + sfx)
			if !ok || !bytes.Equal(got, want) {
				r.mismatch("layered pass: report of %s%s differs from the replica's", rp.def.id, sfx)
			}
		}
		if info, err := os.Stat(filepath.Join(replicaDir, "clusters", rp.def.id, "snapshot.json")); err == nil {
			l.snapshotBytes += info.Size()
		}
	}
	if err := hst.Close(); err != nil {
		return nil, err
	}
	return l, r.recoveryProbes(l, replicaDir, reps)
}

// buildReplicas creates each spec's four service twins and its replica.
func (r *run) buildReplicas(l *layerStats, srv *server, hst *store.Store, cl *client, pop []clusterDef) ([]*replica, error) {
	var reps []*replica
	for i := range pop {
		def := &pop[i]
		rp := &replica{def: def, opBase: l.ops}
		l.ops += def.ticks
		for _, sfx := range depthSuffixes {
			twin := *def
			twin.id = def.id + sfx
			ok := false
			l.span(l.nextOp(), "service.create", "", func() { _, ok = cl.create(&twin) })
			if !ok {
				return nil, fmt.Errorf("creating %s: %v", twin.id, cl.first)
			}
		}
		var err error
		if rp.direct, err = srv.svc.Get(def.id + "-direct"); err != nil {
			return nil, err
		}
		l.span(l.nextOp(), "scenario.build", "", func() { rp.sess, err = tempo.NewSession(def.spec, sessionOptions) })
		if err != nil {
			return nil, err
		}
		if rp.cs, err = hst.Create(def.id, def.spec); err != nil {
			return nil, err
		}
		for j := range def.spec.SLOs {
			t, err := def.spec.SLOs[j].Template()
			if err != nil {
				return nil, err
			}
			rp.templates = append(rp.templates, t)
		}
		l.templates = max(l.templates, len(rp.templates))
		l.span(l.nextOp(), "query.parse", "", func() { rp.plan, err = tempo.ParseQueryPlan(strings.NewReader(queryPlanJSON)) })
		if err != nil {
			return nil, err
		}
		l.span(l.nextOp(), "query.compile", "", func() { rp.runner, err = rp.sess.NewQueryRunner(rp.plan) })
		if err != nil {
			return nil, err
		}
		names := def.spec.TenantNames()
		for _, cand := range whatIfCandidates(def.spec) {
			cfg, err := (&scenario.InitialSpec{Tenants: cand}).Config(def.spec.Capacity, names)
			if err != nil {
				return nil, err
			}
			rp.cfgs = append(rp.cfgs, cfg)
		}
		reps = append(reps, rp)
	}
	return reps, nil
}

// layeredTick runs tick t of one spec at every depth.
func (r *run) layeredTick(l *layerStats, srv *server, cl *client, handler http.Handler, rp *replica, t int) error {
	op := rp.opBase + t
	id := rp.def.id
	l.ticks++

	// Real service, three depths. The traced and the plain HTTP twin
	// alternate who goes first.
	traced := func() { l.span(op, "http.tick", "", func() { cl.tick(id+"-http", t) }) }
	plain := func() {
		_, d, _ := cl.tick(id+"-plain", t)
		l.plainHTTP = append(l.plainHTTP, d)
	}
	if t%2 == 0 {
		traced()
		plain()
	} else {
		plain()
		traced()
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/clusters/"+id+"-handler/tick", nil)
	rec := httptest.NewRecorder()
	l.span(op, "handler.tick", "", func() { handler.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler tick %d of %s: status %d", t, id, rec.Code)
	}
	var err error
	l.span(op, "service.tick", "", func() { _, _, err = srv.svc.Tick(context.Background(), rp.direct) })
	if err != nil {
		return fmt.Errorf("service tick %d of %s: %w", t, id, err)
	}

	// The replica of execTick.
	var it tempo.ScenarioIteration
	var sched *tempo.Schedule
	var tickD time.Duration
	rootStart := time.Now()
	tickD = l.span(op, "session.tick", "tick", func() { it, err = rp.sess.Tick() })
	tickEnd := l.lastEnd
	if err != nil {
		return fmt.Errorf("replica tick %d of %s: %w", t, id, err)
	}
	sched = rp.sess.ObservedSchedule(t)
	l.span(op, "store.append", "tick", func() { err = rp.cs.AppendTick(t, sched) })
	if err != nil {
		return err
	}
	if (t+1)%snapshotEvery == 0 {
		var snap *tempo.SessionSnapshot
		l.span(op, "scenario.snapshot", "tick", func() { snap, err = rp.sess.Snapshot() })
		if err != nil {
			return err
		}
		l.span(op, "store.snapshot_write", "tick", func() { err = rp.cs.WriteSnapshot(snap) })
		if err != nil {
			return err
		}
	}
	rootEnd := time.Now()
	l.tr.add(op, "tick", "", rootStart, rootEnd)
	l.lat["tick"] = append(l.lat["tick"], rootEnd.Sub(rootStart))
	if r.w.durable {
		l.replicaTick = append(l.replicaTick, rootEnd.Sub(rootStart))
	} else {
		l.replicaTick = append(l.replicaTick, tickD)
	}
	l.sessionTickNs += tickD.Nanoseconds()
	var dec time.Duration
	if st := rp.sess.Search(t); st != nil {
		// The decision is the tail of the controller's step.
		dec = min(time.Duration(st.DecisionNanos), tickD)
		l.tr.add(op, "core.decision", "session.tick", tickEnd.Add(-dec), tickEnd)
		l.lat["core.decision"] = append(l.lat["core.decision"], dec)
		l.decisionNs += dec.Nanoseconds()
		l.candidates += int64(st.Candidates)
		l.fullyScored += int64(st.FullyScored)
		l.warmStarted += int64(st.WarmStarted)
		l.pruned += int64(st.Pruned)
		l.simsRun += int64(st.SimsRun)
		l.simsReused += int64(st.SimsReused)
	}

	// Probes: the layers' public functions on the tick's own schedule.
	l.span(op, "service.encode", "", func() {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		err = enc.Encode(service.TickResponse{Iteration: it.Index, Observed: it.Observed, Switched: it.Switched, Reverted: it.Reverted})
	})
	if err != nil {
		return err
	}
	l.span(op, "store.encode", "", func() { rp.encBuf = store.EncodeTick(rp.encBuf[:0], t, sched) })
	l.walBytes += int64(len(rp.encBuf)) + 8 // plus the WAL frame: length and CRC
	l.span(op, "store.fsync", "", func() { err = rp.cs.Sync() })
	if err != nil {
		return err
	}
	qsEval := l.span(op, "qs.eval", "", func() { qs.EvalStream(rp.templates, sched, 0, sched.Horizon+time.Nanosecond) })
	l.observeSelf = append(l.observeSelf, tickD-dec-qsEval)
	var acc *qs.Accumulator
	l.span(op, "qs.accumulate", "", func() { acc = qs.Accumulate(rp.templates, sched) })
	interval := rp.def.spec.Interval()
	l.span(op, "qs.window", "", func() { acc.Values(interval/4, 3*interval/4) })
	l.span(op, "cluster.events", "", func() { l.events += int64(len(sched.Events())) })
	l.tasks += int64(len(sched.Tasks))
	l.jobs += int64(len(sched.Jobs))
	l.span(op, "query.push_tick", "", func() { _, err = rp.runner.PushTick(t, sched) })
	if err != nil {
		return err
	}

	// The session's read calls cost O(history), so they run at the
	// snapshot cadence and on the last tick.
	if (t+1)%snapshotEvery == 0 || t == rp.def.ticks-1 {
		from, to := qsWindow(rp.def.spec, t+1)
		l.span(op, "session.qs", "", func() { _, err = rp.sess.QS(from, to) })
		if err != nil {
			return err
		}
		var res *tempo.QueryResult
		l.span(op, "session.query", "", func() { res, err = rp.sess.Query(rp.plan) })
		if err != nil {
			return err
		}
		if t == rp.def.ticks-1 {
			l.resultRows += len(res.Rows)
			if standing := rp.runner.Result(); len(standing.Rows) != len(res.Rows) {
				r.mismatch("layered pass: %s: standing query has %d rows, one-shot %d", id, len(standing.Rows), len(res.Rows))
			}
		}
		l.span(op, "session.whatif", "", func() { _, err = rp.sess.WhatIf(rp.cfgs) })
		if err != nil {
			return err
		}
		l.span(op, "session.report", "", func() { _, err = rp.sess.Report().MarshalCanonical() })
		if err != nil {
			return err
		}
	}
	return nil
}

// recoveryProbes reopens the replica's store cold and times the read
// side of durability: WAL scan, decode, snapshot load, and
// scenario.Resume with and without the snapshot. Each resumed session
// must land on the replica's report.
func (r *run) recoveryProbes(l *layerStats, replicaDir string, reps []*replica) error {
	var hst *store.Store
	var err error
	d := l.span(l.nextOp(), "store.open", "", func() { hst, err = store.Open(replicaDir, storeOptions) })
	if err != nil {
		return err
	}
	defer hst.Close()
	l.openMs = ms(d)
	var walBytes int64
	var decode time.Duration
	for _, rp := range reps {
		op := l.nextOp()
		cs, err := hst.Get(rp.def.id)
		if err != nil {
			return err
		}
		walBytes += cs.WALSize()
		var schedules []*tempo.Schedule
		decode += l.span(op, "store.schedules", "", func() { schedules, err = cs.Schedules() })
		if err != nil {
			return err
		}
		var snap *tempo.SessionSnapshot
		l.span(op, "store.load_snapshot", "", func() { snap, err = cs.LoadSnapshot() })
		if err != nil {
			return err
		}
		want, err := rp.sess.Report().MarshalCanonical()
		if err != nil {
			return err
		}
		for _, probe := range []struct {
			name string
			snap *tempo.SessionSnapshot
		}{{"scenario.resume", snap}, {"scenario.resume_nosnap", nil}} {
			var sess *tempo.Session
			l.span(op, probe.name, "", func() { sess, err = tempo.ResumeSession(cs.Spec(), sessionOptions, probe.snap, schedules) })
			if err != nil {
				return fmt.Errorf("%s of %s: %w", probe.name, rp.def.id, err)
			}
			if got, err := sess.Report().MarshalCanonical(); err != nil || !bytes.Equal(got, want) {
				r.mismatch("layered pass: %s of %s does not land on the replica's report", probe.name, rp.def.id)
			}
		}
	}
	l.schedulesMs = ms(decode)
	if decode > 0 {
		l.decodeMBPerS = float64(walBytes) / (1 << 20) / decode.Seconds()
	}
	return nil
}
