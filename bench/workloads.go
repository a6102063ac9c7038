package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"tempo/internal/scenario"
	"tempo/internal/service"
)

// The specs are the benchmark's own copies, so a later edit to
// internal/scenario/testdata cannot move the benchmark.
//
//go:embed workloads/*.json
var specFiles embed.FS

// group is one slice of a workload's population: clusters of one base
// spec, each driven for ticks control intervals.
type group struct {
	base     string // workloads/<base>.json
	clusters int
	ticks    int
	// minTasks and maxTasks, when set, bound the task count of each
	// cluster's generated trace: seeds are redrawn until it fits. Half of
	// all small.json seeds replay an interval with no job at all, which
	// makes a tick nearly free, and a few replay one giant job, which
	// makes the simulator dominate; left in, they make the work of a run
	// swing with the seed by a quarter.
	minTasks, maxTasks int
}

// smallTasks is the band every small.json cluster's replayed interval
// falls in: about the middle third of the seeds that have a job.
const smallMinTasks, smallMaxTasks = 10, 60

type workloadKind int

const (
	kindTick    workloadKind = iota // two clients tick disjoint halves of the population
	kindMixed                       // client 0 ticks, client 1 reads during odd blocks
	kindRestart                     // cold recoveries of a data dir built in set-up
)

// workload is one traffic mix. One epoch is: set up the population on a
// fresh service (timed as set-up), do the fixed measured work, check the
// outputs, tear down. A run repeats epochs, each with fresh spec seeds,
// until the measured windows add up to -seconds.
type workload struct {
	name    string
	why     string
	kind    workloadKind
	durable bool
	groups  []group
	// verify is how many clusters per group and epoch are re-run with
	// scenario.Run and byte-compared.
	verify int
	// blockLen is mixed-rw's block length in tick rounds: the reader is
	// active during odd blocks only.
	blockLen int
	// recoveries is restart's cold recoveries per epoch.
	recoveries int
	// layer is the population of the traced run's layered pass: fewer
	// clusters and about a quarter of the ticks, because every tick is
	// entered at five depths one after the other.
	layer []group
}

// Sizes were chosen on a 2-core box so one epoch's window lasts 3-5 s and a
// 15 s run has three to five epochs to take its medians over, with as many
// clusters resident at once as that leaves room for: the spread between
// runs of different seeds is mostly the spread between clusters.
// Add work by adding clusters, not ticks per cluster: ticks per cluster
// set how far the per-tick costs that grow with history (snapshot,
// report, query) have grown by the end of an epoch.
var fullScale = []workload{
	{
		name: "tick-small", kind: kindTick, durable: true, verify: 3,
		why:    "durable small clusters with long histories: service and store do most of the work, the simulator little",
		groups: []group{{"small", 64, 128, smallMinTasks, smallMaxTasks}},
		layer:  []group{{"small", 12, 50, smallMinTasks, smallMaxTasks}},
	},
	{
		name: "tick-stress", kind: kindTick, verify: 1,
		why:    "in-memory 100-tenant clusters with 173 QS templates: cluster, whatif, core and qs do nearly all the work, store is absent",
		groups: []group{{base: "stress", clusters: 12, ticks: 40}},
		layer:  []group{{base: "stress", clusters: 6, ticks: 24}},
	},
	{
		name: "mixed-rw", kind: kindMixed, verify: 1, blockLen: 10,
		why:    "a writer ticks medium clusters while a reader scans the same clusters in alternating blocks: tick latency under ad-hoc reads",
		groups: []group{{base: "medium", clusters: 16, ticks: 40}},
		layer:  []group{{base: "medium", clusters: 4, ticks: 10}},
	},
	{
		name: "restart", kind: kindRestart, durable: true, verify: 1, recoveries: 24,
		why:    "cold recoveries of a data dir of small and stress clusters: store and scenario.Resume as readers, where tick-small writes",
		groups: []group{{"small", 16, 128, smallMinTasks, smallMaxTasks}, {base: "stress", clusters: 2, ticks: 32}},
		layer:  []group{{"small", 4, 32, smallMinTasks, smallMaxTasks}, {base: "stress", clusters: 1, ticks: 8}},
	},
}

// tinyScale shrinks every population so the tests finish in seconds.
var tinyScale = []workload{
	{name: "tick-small", kind: kindTick, durable: true, verify: 1,
		groups: []group{{"small", 4, 16, smallMinTasks, smallMaxTasks}}, layer: []group{{"small", 2, 16, smallMinTasks, smallMaxTasks}}},
	{name: "tick-stress", kind: kindTick, verify: 1,
		groups: []group{{base: "stress", clusters: 2, ticks: 4}}, layer: []group{{base: "stress", clusters: 1, ticks: 2}}},
	{name: "mixed-rw", kind: kindMixed, verify: 1, blockLen: 4,
		groups: []group{{base: "medium", clusters: 2, ticks: 16}}, layer: []group{{base: "medium", clusters: 1, ticks: 4}}},
	{name: "restart", kind: kindRestart, durable: true, verify: 1, recoveries: 2,
		groups: []group{{"small", 2, 16, smallMinTasks, smallMaxTasks}, {base: "stress", clusters: 1, ticks: 4}},
		layer:  []group{{"small", 1, 8, smallMinTasks, smallMaxTasks}, {base: "stress", clusters: 1, ticks: 2}}},
}

func workloadsAt(scale string) ([]workload, error) {
	switch scale {
	case "full":
		return fullScale, nil
	case "tiny":
		return tinyScale, nil
	}
	return nil, fmt.Errorf("unknown -scale %q (full or tiny)", scale)
}

// clusterDef is one generated cluster: the only thing the program under
// test receives is raw (in a create request) and the requests that
// follow.
type clusterDef struct {
	id    string
	spec  *scenario.Spec
	raw   json.RawMessage
	ticks int
}

// populate generates the epoch's clusters from the seed: cluster n of
// epoch e runs its base spec with seed seed*1000003 + e*1009 + n (plus
// 100003 per redraw, for a group with a task band), its own name, and
// exactly the iterations the workload drives, so the final report is the
// report of a complete scenario.Run.
func populate(groups []group, seed int64, epoch int) ([]clusterDef, error) {
	var pop []clusterDef
	n := 0
	for _, g := range groups {
		base, err := specFiles.ReadFile("workloads/" + g.base + ".json")
		if err != nil {
			return nil, err
		}
		for i := 0; i < g.clusters; i++ {
			spec, err := scenario.Load(bytes.NewReader(base))
			if err != nil {
				return nil, fmt.Errorf("workloads/%s.json: %w", g.base, err)
			}
			spec.Name = fmt.Sprintf("%s-e%d-%03d", g.base, epoch, i)
			spec.Description = ""
			spec.Seed = seed*1000003 + int64(epoch)*1009 + int64(n)
			spec.Iterations = g.ticks
			for g.maxTasks > 0 {
				tasks, err := traceTasks(spec)
				if err != nil {
					return nil, err
				}
				if tasks >= g.minTasks && tasks <= g.maxTasks {
					break
				}
				spec.Seed += 100003
			}
			if err := spec.Validate(); err != nil {
				return nil, err
			}
			raw, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			pop = append(pop, clusterDef{id: spec.Name, spec: spec, raw: raw, ticks: g.ticks})
			n++
		}
	}
	return pop, nil
}

// traceTasks counts the tasks of the workload trace the spec generates.
func traceTasks(spec *scenario.Spec) (int, error) {
	rt, err := scenario.Build(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		return 0, err
	}
	tasks := 0
	for i := range rt.Trace.Jobs {
		tasks += rt.Trace.Jobs[i].TaskCount()
	}
	return tasks, nil
}

// queryPlanJSON is the ad-hoc scan every workload's reads use: per-tenant
// job count and p99 response time over the whole history.
const queryPlanJSON = `{"version":1,"source":"jobs","ops":[` +
	`{"op":"group_by","by":["tenant"]},` +
	`{"op":"aggregate","aggs":[{"fn":"count","as":"jobs"},{"fn":"p99","field":"response_seconds","as":"p99_response"}]}]}`

// queryReply is the part of a query result the harness checks.
type queryReply struct {
	Ticks     int               `json:"ticks"`
	Rows      []json.RawMessage `json:"rows"`
	Truncated bool              `json:"truncated"`
}

// whatIfCandidates is the two-candidate probe: the equal-weight default
// and weight 4 on the first tenant. Valid for any spec.
func whatIfCandidates(spec *scenario.Spec) []map[string]scenario.TenantConfigSpec {
	return []map[string]scenario.TenantConfigSpec{
		{},
		{spec.TenantNames()[0]: {Weight: 4}},
	}
}

// qsWindow is the windowed-QS read: the last four of done completed
// intervals, starting half-way into the first, so the first slice is a
// sub-window and the rest are full intervals.
func qsWindow(spec *scenario.Spec, done int) (from, to time.Duration) {
	first := done - 4
	if first < 0 {
		first = 0
	}
	l := spec.Interval()
	return time.Duration(first)*l + l/2, time.Duration(done) * l
}

func (c *client) report(id string) ([]byte, time.Duration, bool) {
	return c.call("report", http.MethodGet, "/v1/clusters/"+id+"/report", nil)
}

func (c *client) status(id string) (service.StatusResponse, time.Duration, bool) {
	var st service.StatusResponse
	raw, d, ok := c.call("status", http.MethodGet, "/v1/clusters/"+id, nil)
	if ok {
		if err := json.Unmarshal(raw, &st); err != nil {
			c.fail("status", err)
			ok = false
		}
	}
	return st, d, ok
}

func (c *client) qs(id string, from, to time.Duration) (service.QSResponse, time.Duration, bool) {
	var resp service.QSResponse
	q := url.Values{"from": {from.String()}, "to": {to.String()}}
	raw, d, ok := c.call("qs", http.MethodGet, "/v1/clusters/"+id+"/qs?"+q.Encode(), nil)
	if ok {
		if err := json.Unmarshal(raw, &resp); err != nil {
			c.fail("qs", err)
			ok = false
		}
	}
	return resp, d, ok
}

func (c *client) query(id string) (queryReply, time.Duration, bool) {
	var resp queryReply
	raw, d, ok := c.call("query", http.MethodPost, "/v1/clusters/"+id+"/query", []byte(queryPlanJSON))
	if ok {
		if err := json.Unmarshal(raw, &resp); err != nil {
			c.fail("query", err)
			ok = false
		} else if resp.Truncated {
			c.fail("query", fmt.Errorf("cluster %s: result truncated", id))
			ok = false
		}
	}
	return resp, d, ok
}

func (c *client) whatif(def *clusterDef) (time.Duration, bool) {
	body, err := json.Marshal(service.WhatIfRequest{Candidates: whatIfCandidates(def.spec)})
	if err != nil {
		c.ops.at("whatif").attempted++
		c.fail("whatif", err)
		return 0, false
	}
	raw, d, ok := c.call("whatif", http.MethodPost, "/v1/clusters/"+def.id+"/whatif", body)
	if !ok {
		return d, false
	}
	var resp service.WhatIfResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		c.fail("whatif", err)
		return d, false
	}
	if len(resp.Results) != 2 || len(resp.Results[0]) != len(def.spec.SLOs) || len(resp.Results[1]) != len(def.spec.SLOs) {
		c.fail("whatif", fmt.Errorf("cluster %s: malformed result matrix", def.id))
		return d, false
	}
	return d, true
}
