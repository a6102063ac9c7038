package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tempo/internal/scenario"
)

// clients is the closed loop's width: tempod's callers are control-loop
// drivers that wait for each reply, and the box has two cores.
const clients = 2

// run accumulates one benchmark run's measurements over its epochs.
type run struct {
	w   *workload
	opt options
	out io.Writer // the human-readable report

	ops        tally
	mismatches []string // failed correctness checks; any one makes the run incorrect
	epochs     int

	// e2e holds, per end-to-end rate, tail, size or set-up time, one value
	// per epoch; the run reports the median. The sandbox slows down by a
	// quarter for seconds at a time, and a median over epochs shrugs off a
	// burst that a pooled figure would absorb. The p50 latencies are taken
	// over the run's pooled samples instead: a median shrugs off a burst
	// by itself, and pooling gives it every epoch's samples.
	e2e map[string][]float64

	// The pooled accumulators: everything the epochs measured, in order.
	// An epoch's own share is what it appended (see mark); the per-layer
	// metrics read the whole.
	window procDelta // summed over the measured windows
	opsN   int64     // primary operations completed: ticks, or cold recoveries on restart
	opLat  samples   // primary operation latency

	reportLat, qsLat, queryLat, whatifLat samples

	// What follows feeds per-layer metrics only.
	firstEighth, lastEighth samples // tick latencies at the start and end of each cluster's life
	quiet, busy             samples // mixed-rw tick latencies by block
	busyReport              samples // mixed-rw in-window report reads
	busyReads               int64
	busyTime                time.Duration
	shed                    int64
	serverP50, serverP99    []float64 // the service's own tick quantiles, per shard and epoch
	dataBytes, dataTicks    int64     // first epoch only, so the ratio is exact for a seed
}

// mark is where the pooled accumulators stood when an epoch began.
type mark struct {
	window procDelta
	ops    int64
	opLat  int
}

func (r *run) mark() mark { return mark{r.window, r.opsN, len(r.opLat)} }

// closeEpoch computes the finished epoch's per-epoch end-to-end values
// from what it added to the accumulators since m.
func (r *run) closeEpoch(m mark, setups []time.Duration, heapMB float64) {
	wall := r.window.wall - m.window.wall
	cpu := r.window.user + r.window.sys - m.window.user - m.window.sys
	ops := float64(r.opsN - m.ops)
	for _, d := range setups {
		r.e2e["setup_s"] = append(r.e2e["setup_s"], d.Seconds())
	}
	for name, v := range map[string]float64{
		"ops_per_s":     ratio(ops, wall.Seconds()),
		"op_p95_ms":     ms(r.opLat[m.opLat:].percentile(0.95)),
		"cpu_ms_per_op": ratio(ms(cpu), ops),
		"heap_mb_end":   heapMB,
	} {
		r.e2e[name] = append(r.e2e[name], v)
	}
	// One line per epoch shows a burst of interference for what it is.
	fmt.Fprintf(r.out, "epoch %d: set-up %.3fs, window %.2fs, %.1f ops/s, op p50 %.3f ms, p95 %.3f ms, %.3f ms cpu/op, heap %.1f MiB\n",
		r.epochs, setups[len(setups)-1].Seconds(), wall.Seconds(), ratio(ops, wall.Seconds()), ms(r.opLat[m.opLat:].percentile(0.50)),
		ms(r.opLat[m.opLat:].percentile(0.95)), ratio(ms(cpu), ops), heapMB)
}

func (r *run) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// measure runs epochs until the measured windows add up to budget, and at
// least one.
func (r *run) measure(budget time.Duration) error {
	for r.epochs == 0 || r.window.wall < budget {
		var err error
		if r.w.kind == kindRestart {
			err = r.restartEpoch(r.epochs)
		} else {
			err = r.tickEpoch(r.epochs)
		}
		if err != nil {
			return fmt.Errorf("%s epoch %d: %w", r.w.name, r.epochs, err)
		}
		r.epochs++
	}
	return nil
}

// epochDir names the data dir of a durable epoch; it is "" for an
// in-memory workload.
func (r *run) epochDir(epoch int) string {
	if !r.w.durable {
		return ""
	}
	return filepath.Join(r.opt.tmp, fmt.Sprintf("data-%s-e%d", r.w.name, epoch))
}

// sizeDataDir records the first epoch's data-dir size and committed
// ticks, once the service that wrote it has closed.
func (r *run) sizeDataDir(dir string, epoch int, pop []clusterDef) (err error) {
	if dir == "" || epoch != 0 {
		return nil
	}
	for i := range pop {
		r.dataTicks += int64(pop[i].ticks)
	}
	r.dataBytes, err = dirBytes(dir)
	return err
}

// eachClient runs fn once per client on its own goroutine and folds the
// clients' tallies into the run's.
func (r *run) eachClient(base string, fn func(c int, cl *client)) {
	var wg sync.WaitGroup
	cls := make([]*client, clients)
	for c := range cls {
		cls[c] = newClient(base)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, cls[c])
		}(c)
	}
	wg.Wait()
	for _, cl := range cls {
		r.absorb(cl)
	}
}

// absorb folds a finished client's tally into the run's and closes it.
func (r *run) absorb(cl *client) {
	r.ops.merge(cl.ops)
	if cl.first != nil && len(r.mismatches) < 8 {
		r.mismatch("failed operation: %v", cl.first)
	}
	cl.close()
}

// createAll creates the population over HTTP, client c taking clusters
// with i mod clients = c.
func (r *run) createAll(base string, pop []clusterDef) error {
	var failed atomic.Int64
	r.eachClient(base, func(c int, cl *client) {
		for i := c; i < len(pop); i += clients {
			if _, ok := cl.create(&pop[i]); !ok {
				failed.Add(1)
			}
		}
	})
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("%d of %d clusters could not be created", n, len(pop))
	}
	return nil
}

// setUps is how often a tick epoch sets up: twice on a throwaway service
// before the one it measures. Set-up takes tens of milliseconds, and its
// median wants more samples than a run has epochs.
const setUps = 3

// setUp starts a service on dir, emptied first, and creates the population
// over HTTP; the time the two take is one setup_s sample.
func (r *run) setUp(dir string, pop []clusterDef) (*server, time.Duration, error) {
	if dir != "" {
		if err := freshDir(dir); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	srv, err := startServer(dir)
	if err != nil {
		return nil, 0, err
	}
	if err := r.createAll(srv.base, pop); err != nil {
		srv.stop()
		return nil, 0, err
	}
	return srv, time.Since(start), nil
}

// driveTicks ticks every cluster to its tick count, round-robin, client c
// owning clusters with i mod clients = c. lat[i][t] is tick t of cluster i.
func (r *run) driveTicks(base string, pop []clusterDef) [][]time.Duration {
	lat := make([][]time.Duration, len(pop))
	most := 0
	for i := range pop {
		lat[i] = make([]time.Duration, pop[i].ticks)
		most = max(most, pop[i].ticks)
	}
	r.eachClient(base, func(c int, cl *client) {
		for t := 0; t < most; t++ {
			for i := c; i < len(pop); i += clients {
				if t < pop[i].ticks {
					_, lat[i][t], _ = cl.tick(pop[i].id, t)
				}
			}
		}
	})
	return lat
}

// tickEpoch is one epoch of a tick or mixed workload.
func (r *run) tickEpoch(epoch int) error {
	pop, err := populate(r.w.groups, r.opt.seed, epoch)
	if err != nil {
		return err
	}
	dir := r.epochDir(epoch)
	if dir != "" {
		defer os.RemoveAll(dir)
	}

	m := r.mark()
	var srv *server
	var setups []time.Duration
	for len(setups) < setUps {
		if srv != nil {
			srv.stop()
		}
		var d time.Duration
		if srv, d, err = r.setUp(dir, pop); err != nil {
			return err
		}
		setups = append(setups, d)
	}
	defer srv.stop()

	var lat [][]time.Duration
	var observed [][][]float64
	var reads []qsRead
	before := readProc()
	if r.w.kind == kindMixed {
		lat, observed, reads = r.mixedWindow(srv.base, pop)
	} else {
		lat = r.driveTicks(srv.base, pop)
	}
	r.window.add(before, readProc())
	for i := range lat {
		r.opsN += int64(len(lat[i]))
		r.opLat = append(r.opLat, lat[i]...)
		eighth := max(len(lat[i])/8, 1)
		r.firstEighth = append(r.firstEighth, lat[i][:eighth]...)
		r.lastEighth = append(r.lastEighth, lat[i][len(lat[i])-eighth:]...)
	}

	// Everything below is outside the timed window.
	cl := newClient(srv.base)
	reports := r.fetchReports(cl, pop)
	for i := range pop {
		if st, _, ok := cl.status(pop[i].id); ok && (st.Ticks != pop[i].ticks || !st.Done) {
			r.mismatch("cluster %s stands at tick %d (done=%v), want %d", pop[i].id, st.Ticks, st.Done, pop[i].ticks)
		}
	}
	if r.w.kind == kindMixed {
		r.checkQSReads(pop, observed, reads)
	} else {
		r.probeReads(cl, pop, reports)
	}
	r.absorb(cl)
	r.closeEpoch(m, setups, heapAfterGC())
	sm := srv.svc.Metrics()
	r.shed += sm.ShedRequests
	for _, sh := range sm.Shards {
		if sh.Ticks > 0 {
			r.serverP50 = append(r.serverP50, sh.TickLatencyP50Ms)
			r.serverP99 = append(r.serverP99, sh.TickLatencyP99Ms)
		}
	}
	srv.stop()
	if err := r.sizeDataDir(dir, epoch, pop); err != nil {
		return err
	}
	r.verifyReports(pop, reports)
	return nil
}

// fetchReports fetches every cluster's canonical report, one at a time;
// the latencies are the service.report_p50_ms samples.
func (r *run) fetchReports(cl *client, pop []clusterDef) [][]byte {
	reports := make([][]byte, len(pop))
	for i := range pop {
		raw, d, ok := cl.report(pop[i].id)
		if ok {
			reports[i] = raw
			r.reportLat = append(r.reportLat, d)
		}
	}
	return reports
}

// probeRounds is how often probeReads goes over the population: the reads
// take a fraction of a millisecond, and their medians want the samples.
const probeRounds = 3

// probeReads issues one windowed QS read, one ad-hoc query and one
// what-if against every cluster, probeRounds times over, and checks each
// full-interval QS slice against the observed vector the cluster's report
// carries for that tick, bit for bit.
func (r *run) probeReads(cl *client, pop []clusterDef, reports [][]byte) {
	for n := 0; n < probeRounds*len(pop); n++ {
		i := n % len(pop)
		def := &pop[i]
		from, to := qsWindow(def.spec, def.ticks)
		if resp, d, ok := cl.qs(def.id, from, to); ok {
			r.qsLat = append(r.qsLat, d)
			var rep scenario.Report
			if err := json.Unmarshal(reports[i], &rep); err != nil {
				r.mismatch("cluster %s: report does not parse: %v", def.id, err)
			} else {
				for _, w := range resp.Windows[min(1, len(resp.Windows)):] {
					if w.Iteration >= len(rep.Iterations) || !sameBits(w.Values, rep.Iterations[w.Iteration].Observed) {
						r.mismatch("cluster %s: qs window of tick %d differs from the observed vector", def.id, w.Iteration)
					}
				}
			}
		}
		if resp, d, ok := cl.query(def.id); ok {
			r.queryLat = append(r.queryLat, d)
			if resp.Ticks != def.ticks {
				r.mismatch("cluster %s: query scanned %d ticks, want %d", def.id, resp.Ticks, def.ticks)
			}
		}
		if d, ok := cl.whatif(def); ok {
			r.whatifLat = append(r.whatifLat, d)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// verifyReports re-runs w.verify clusters per group with scenario.Run,
// sequentially and in process, and byte-compares the canonical reports:
// sharded, interleaved, durable serving must have changed nothing. The
// chosen clusters are spread over each group and always include its
// first and last.
func (r *run) verifyReports(pop []clusterDef, reports [][]byte) {
	var picks []int
	start := 0
	for _, g := range r.w.groups {
		k := min(r.w.verify, g.clusters)
		for j := 0; j < k; j++ {
			off := 0
			if k > 1 {
				off = j * (g.clusters - 1) / (k - 1)
			}
			picks = append(picks, start+off)
		}
		start += g.clusters
	}
	errs := make([]string, len(picks))
	var wg sync.WaitGroup
	sem := make(chan struct{}, clients) // as many reference runs at once as there are cores in use
	for n, i := range picks {
		wg.Add(1)
		go func(n, i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rep, err := scenario.Run(pop[i].spec, scenario.Options{Parallelism: 1})
			if err != nil {
				errs[n] = fmt.Sprintf("reference run of %s: %v", pop[i].id, err)
				return
			}
			want, err := rep.MarshalCanonical()
			if err != nil {
				errs[n] = fmt.Sprintf("reference run of %s: %v", pop[i].id, err)
				return
			}
			if !bytes.Equal(reports[i], want) {
				errs[n] = fmt.Sprintf("cluster %s: report differs from scenario.Run", pop[i].id)
			}
		}(n, i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			r.mismatch("%s", e)
		}
	}
}

// qsRead is one in-window QS reply, kept for checking after the window.
type qsRead struct {
	cluster   int
	iteration int
	values    []float64
}

// readCycle is the reader's operation mix.
var readCycle = []string{"qs", "query", "qs", "whatif", "qs", "query", "qs", "report"}

// mixedWindow is mixed-rw's measured work: client 0 ticks every cluster
// round-robin; client 1 reads the same clusters, cycling readCycle, but
// only during odd blocks of blockLen rounds, so the ticks of even blocks
// are the quiet baseline on the same clusters.
func (r *run) mixedWindow(base string, pop []clusterDef) (lat [][]time.Duration, observed [][][]float64, reads []qsRead) {
	rounds := pop[0].ticks
	blocks := rounds / r.w.blockLen
	lat = make([][]time.Duration, len(pop))
	observed = make([][][]float64, len(pop))
	for i := range pop {
		lat[i] = make([]time.Duration, rounds)
		observed[i] = make([][]float64, rounds)
	}
	// blockStart[b] closes when block b begins; blockStart[blocks] when
	// the last round ends.
	blockStart := make([]chan struct{}, blocks+1)
	for b := range blockStart {
		blockStart[b] = make(chan struct{})
	}
	startedAt := make([]time.Time, blocks+1)
	var done atomic.Int64 // completed rounds

	r.eachClient(base, func(c int, cl *client) {
		if c == 0 {
			for t := 0; t < rounds; t++ {
				if t%r.w.blockLen == 0 && t/r.w.blockLen < blocks {
					startedAt[t/r.w.blockLen] = time.Now()
					close(blockStart[t/r.w.blockLen])
				}
				for i := range pop {
					resp, d, _ := cl.tick(pop[i].id, t)
					lat[i][t], observed[i][t] = d, resp.Observed
				}
				done.Store(int64(t + 1))
			}
			startedAt[blocks] = time.Now()
			close(blockStart[blocks])
			return
		}
		k := 0
		for b := 1; b < blocks; b += 2 {
			<-blockStart[b]
			end := int64((b + 1) * r.w.blockLen)
			for done.Load() < end {
				i := k % len(pop)
				op := readCycle[(k+k/len(pop))%len(readCycle)]
				k++
				r.busyReads++
				switch op {
				case "qs":
					completed := int(done.Load())
					from, to := qsWindow(pop[i].spec, completed)
					if resp, d, ok := cl.qs(pop[i].id, from, to); ok {
						r.qsLat = append(r.qsLat, d)
						for _, w := range resp.Windows[min(1, len(resp.Windows)):] {
							reads = append(reads, qsRead{i, w.Iteration, w.Values})
						}
					}
				case "query":
					if _, d, ok := cl.query(pop[i].id); ok {
						r.queryLat = append(r.queryLat, d)
					}
				case "whatif":
					if d, ok := cl.whatif(&pop[i]); ok {
						r.whatifLat = append(r.whatifLat, d)
					}
				case "report":
					if _, d, ok := cl.report(pop[i].id); ok {
						r.busyReport = append(r.busyReport, d)
					}
				}
			}
		}
	})
	for b := 0; b < blocks; b++ {
		if b%2 == 1 {
			r.busyTime += startedAt[b+1].Sub(startedAt[b])
		}
	}
	for i := range lat {
		for t := 0; t < blocks*r.w.blockLen; t++ {
			if (t/r.w.blockLen)%2 == 1 {
				r.busy = append(r.busy, lat[i][t])
			} else {
				r.quiet = append(r.quiet, lat[i][t])
			}
		}
	}
	return lat, observed, reads
}

// checkQSReads holds every full-interval QS slice the reader saw against
// the observed vector the writer's tick reply carried, bit for bit.
func (r *run) checkQSReads(pop []clusterDef, observed [][][]float64, reads []qsRead) {
	if len(reads) == 0 {
		r.mismatch("the reader saw no full-interval qs window")
	}
	for _, rd := range reads {
		if rd.iteration >= len(observed[rd.cluster]) || !sameBits(rd.values, observed[rd.cluster][rd.iteration]) {
			r.mismatch("cluster %s: qs window of tick %d differs from the tick's observed vector", pop[rd.cluster].id, rd.iteration)
		}
	}
}

// restartEpoch builds a data dir by driving a durable service and
// closing it (the set-up), then recovers it cold w.recoveries times, one
// at a time. A recovery is timed from store.Open until /v1/readyz
// answers 200 and every cluster's status shows its tick cursor.
func (r *run) restartEpoch(epoch int) error {
	pop, err := populate(r.w.groups, r.opt.seed, epoch)
	if err != nil {
		return err
	}
	dir := r.epochDir(epoch)
	defer os.RemoveAll(dir)

	m := r.mark()
	srv, setup, err := r.setUp(dir, pop)
	if err != nil {
		return err
	}
	driveStart := time.Now()
	r.driveTicks(srv.base, pop)
	setup += time.Since(driveStart)
	cl := newClient(srv.base)
	want := make([][]byte, len(pop))
	for i := range pop {
		want[i], _, _ = cl.report(pop[i].id)
	}
	r.absorb(cl)
	closeStart := time.Now()
	srv.stop()
	setup += time.Since(closeStart)
	if err := r.sizeDataDir(dir, epoch, pop); err != nil {
		return err
	}
	r.verifyReports(pop, want)

	for n := 0; n < r.w.recoveries; n++ {
		before := readProc()
		start := time.Now()
		srv, err := startServer(dir)
		if err != nil {
			return fmt.Errorf("recovery %d: %w", n, err)
		}
		cl := newClient(srv.base)
		cl.call("readyz", http.MethodGet, "/v1/readyz", nil)
		for i := range pop {
			if st, _, ok := cl.status(pop[i].id); ok && st.Ticks != pop[i].ticks {
				r.mismatch("recovery %d: cluster %s stands at tick %d, want %d", n, pop[i].id, st.Ticks, pop[i].ticks)
			}
		}
		r.opLat = append(r.opLat, time.Since(start))
		r.window.add(before, readProc())
		r.opsN++

		// Outside the timed recovery: every recovered report must equal
		// the one fetched before the close.
		got := r.fetchReports(cl, pop)
		for i := range pop {
			if !bytes.Equal(got[i], want[i]) {
				r.mismatch("recovery %d: cluster %s: recovered report differs", n, pop[i].id)
			}
		}
		if n == r.w.recoveries-1 {
			r.probeReads(cl, pop, got)
			r.closeEpoch(m, []time.Duration{setup}, heapAfterGC())
			for i := range pop {
				cl.call("delete", http.MethodDelete, "/v1/clusters/"+pop[i].id, nil)
			}
		}
		r.absorb(cl)
		srv.stop()
	}
	if left, err := os.ReadDir(filepath.Join(dir, "clusters")); err != nil || len(left) != 0 {
		r.mismatch("deleting every cluster left %d entries under clusters/ (%v)", len(left), err)
	}
	return nil
}
