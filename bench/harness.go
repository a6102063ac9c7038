package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"tempo/internal/service"
	"tempo/internal/store"
)

// storeOptions are tempod's -fsync-interval / -fsync-bytes defaults: WAL
// group commit every 50 ms or 1 MiB, whichever comes first.
var storeOptions = store.Options{SyncInterval: 50 * time.Millisecond, SyncBytes: 1 << 20}

// server is an in-process tempod: the real service behind a real
// loopback listener, sized by tempod's flag defaults (4 shards x 2
// workers, queue 64, parallelism 1, snapshot every 8 ticks — the zero
// service.Config).
type server struct {
	svc    *service.Service
	http   *http.Server
	base   string
	served chan error
	once   sync.Once
}

// startServer opens dataDir as the durable store ("" runs in memory),
// recovers whatever it holds, and starts serving.
func startServer(dataDir string) (*server, error) {
	var st *store.Store
	if dataDir != "" {
		var err error
		if st, err = store.Open(dataDir, storeOptions); err != nil {
			return nil, fmt.Errorf("opening store %s: %w", dataDir, err)
		}
	}
	svc, err := service.New(service.Config{Store: st})
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, fmt.Errorf("starting service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{
		svc: svc,
		// tempod's listener timeouts.
		http: &http.Server{
			Handler:           svc.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       60 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop follows tempod's shutdown order: listener down, then the service
// drains and flushes and closes the store. It returns once the serve
// goroutine has exited; further calls do nothing.
func (s *server) stop() {
	s.once.Do(func() {
		s.http.Close()
		<-s.served
		s.svc.Close()
	})
}

// opCount tallies one operation type. Retries are off: a transport
// error, a non-2xx reply (sheds included) or a reply that fails its
// check is a failed operation against the number attempted.
type opCount struct{ attempted, failed int64 }

type tally map[string]*opCount

func (t tally) at(op string) *opCount {
	c := t[op]
	if c == nil {
		c = &opCount{}
		t[op] = c
	}
	return c
}

func (t tally) merge(o tally) {
	for op, c := range o {
		d := t.at(op)
		d.attempted += c.attempted
		d.failed += c.failed
	}
}

func (t tally) totals() (attempted, failed int64) {
	for _, c := range t {
		attempted += c.attempted
		failed += c.failed
	}
	return
}

// client is one closed-loop caller: one goroutine's worth of state and
// one keep-alive connection. Not safe for concurrent use.
type client struct {
	hc    *http.Client
	tr    *http.Transport
	base  string
	ops   tally
	first error // first failure seen, for the diagnostics
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{
		hc:   &http.Client{Transport: tr, Timeout: 60 * time.Second},
		tr:   tr,
		base: base,
		ops:  tally{},
	}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// fail records one failed operation (already counted as attempted).
func (c *client) fail(op string, err error) {
	c.ops.at(op).failed++
	if c.first == nil {
		c.first = fmt.Errorf("%s: %w", op, err)
	}
}

// call issues one request and returns the reply body and the
// client-observed latency (request sent to body fully read). ok is
// false, and the operation counted failed, on a transport error or a
// non-2xx status.
func (c *client) call(op, method, path string, body []byte) (raw []byte, d time.Duration, ok bool) {
	c.ops.at(op).attempted++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.fail(op, err)
		return nil, 0, false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail(op, err)
		return nil, time.Since(start), false
	}
	raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	d = time.Since(start)
	if err != nil {
		c.fail(op, err)
		return nil, d, false
	}
	if resp.StatusCode/100 != 2 {
		c.fail(op, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw)))
		return raw, d, false
	}
	return raw, d, true
}

// tick runs one control-loop tick and checks the reply names the
// expected iteration.
func (c *client) tick(id string, want int) (service.TickResponse, time.Duration, bool) {
	var resp service.TickResponse
	raw, d, ok := c.call("tick", http.MethodPost, "/v1/clusters/"+id+"/tick", nil)
	if !ok {
		return resp, d, false
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		c.fail("tick", err)
		return resp, d, false
	}
	if resp.Iteration != want {
		c.fail("tick", fmt.Errorf("cluster %s answered iteration %d, want %d", id, resp.Iteration, want))
		return resp, d, false
	}
	return resp, d, true
}

// create registers one cluster from its marshaled spec.
func (c *client) create(def *clusterDef) (time.Duration, bool) {
	body, err := json.Marshal(service.CreateRequest{ID: def.id, Spec: def.raw})
	if err != nil {
		c.ops.at("create").attempted++
		c.fail("create", err)
		return 0, false
	}
	_, d, ok := c.call("create", http.MethodPost, "/v1/clusters", body)
	return d, ok
}

// samples is a latency sample set; percentiles are nearest-rank over
// every sample, and the count is printed beside each.
type samples []time.Duration

// percentile returns the nearest-rank q-quantile (0 < q <= 1), or 0 for
// an empty set. The receiver keeps its order: sample sets of the layered
// pass are index-aligned by operation.
func (s samples) percentile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	s = append(samples(nil), s...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// minus returns the per-operation differences s[i] - o[i] of two
// index-aligned sample sets.
func (s samples) minus(o samples) samples {
	out := make(samples, min(len(s), len(o)))
	for i := range out {
		out[i] = s[i] - o[i]
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat returns the median of vs (mean of the middle pair for an
// even count), or 0 for none.
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// procSnap is the process's resource use at one instant; deltas over a
// measured window are the proc layer's numbers. Client and server share
// the process, so CPU and allocations include the client.
type procSnap struct {
	at          time.Time
	user, sys   time.Duration
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPause     time.Duration
	maxRSSBytes int64
}

func readProc() procSnap {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF with a valid pointer
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSnap{
		at:          time.Now(),
		user:        time.Duration(ru.Utime.Nano()),
		sys:         time.Duration(ru.Stime.Nano()),
		mallocs:     m.Mallocs,
		allocBytes:  m.TotalAlloc,
		gcCycles:    m.NumGC,
		gcPause:     time.Duration(m.PauseTotalNs),
		maxRSSBytes: ru.Maxrss * 1024, // Linux reports KiB
	}
}

// procDelta accumulates window deltas across a run's epochs.
type procDelta struct {
	wall, user, sys, gcPause time.Duration
	mallocs, allocBytes      uint64
	gcCycles                 uint32
	maxRSSBytes              int64
}

func (p *procDelta) add(before, after procSnap) {
	p.wall += after.at.Sub(before.at)
	p.user += after.user - before.user
	p.sys += after.sys - before.sys
	p.gcPause += after.gcPause - before.gcPause
	p.mallocs += after.mallocs - before.mallocs
	p.allocBytes += after.allocBytes - before.allocBytes
	p.gcCycles += after.gcCycles - before.gcCycles
	if after.maxRSSBytes > p.maxRSSBytes {
		p.maxRSSBytes = after.maxRSSBytes
	}
}

// heapAfterGC forces two collections (the second frees what the first's
// finalizers released) and returns the heap in use, in MiB.
func heapAfterGC() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// freshDir empties and recreates dir.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
