package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/query"
	"tempo/internal/workload"
)

// TestTenantTablePermutation holds every consumer of a schedule to the
// names its records resolve to, not to the numbering of its tenant
// table: a schedule whose table is shuffled, and lists a tenant no record
// uses, with every record's index remapped, gives bit-identical QS
// vectors (oracle and compiled), query results, event stream and CSV
// exports, and compares Equal both ways.
func TestTenantTablePermutation(t *testing.T) {
	tr, err := workload.Generate(workload.CompanyABC(0.4), workload.GenerateOptions{Horizon: 2 * time.Hour, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{TotalContainers: 12, Tenants: map[string]cluster.TenantConfig{}}
	for _, name := range tr.Tenants() {
		cfg.Tenants[name] = cluster.TenantConfig{Weight: 1, MinShare: 2, MinSharePreemptTimeout: time.Minute}
	}
	base, err := cluster.Run(tr, cfg, cluster.Options{Noise: cluster.DefaultNoise(3), Horizon: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if base.PreemptionCount("", nil) == 0 || len(base.TenantNames) < 3 {
		t.Fatalf("fixture too tame: %v over tenants %v", base, base.TenantNames)
	}

	var templates []qs.Template
	for _, name := range append(base.Tenants(), "absent") {
		templates = append(templates,
			qs.Template{Queue: name, Metric: qs.AvgResponseTime},
			qs.Template{Queue: name, Metric: qs.DeadlineViolations, Slack: 0.1},
			qs.Template{Queue: name, Metric: qs.Throughput},
			qs.Template{Queue: name, Metric: qs.Utilization, EffectiveOnly: true},
			qs.Template{Queue: name, Metric: qs.Fairness, DesiredShare: 0.3},
		)
	}
	plans := []string{
		`{"version":1,"source":"jobs","ops":[{"op":"group_by","by":["tenant"]},{"op":"aggregate","aggs":[{"fn":"count"},{"fn":"p99","field":"response_seconds"}]}]}`,
		`{"version":1,"source":"tasks","ops":[{"op":"group_by","by":["tenant","outcome"]},{"op":"aggregate","aggs":[{"fn":"sum","field":"duration_seconds"}]}]}`,
		`{"version":1,"source":"events","ops":[{"op":"limit","n":500}]}`,
		`{"version":1,"source":"jobs","ops":[{"op":"aggregate","slos":` + string(mustJSON(t, templates)) + `}]}`,
	}
	// observe renders everything the property covers, names resolved.
	observe := func(s *cluster.Schedule) []byte {
		var out bytes.Buffer
		horizon := s.Horizon + time.Nanosecond
		for _, w := range [][2]time.Duration{{0, horizon}, {10 * time.Minute, 70 * time.Minute}} {
			for _, v := range [][]float64{qs.EvalAll(templates, s, w[0], w[1]), qs.Compile(templates).Eval(s, w[0], w[1])} {
				for _, x := range v {
					fmt.Fprintf(&out, "%016x ", math.Float64bits(x)) // bit-exact, NaN included
				}
				out.WriteByte('\n')
			}
		}
		for _, js := range plans {
			p, err := query.ParsePlan(strings.NewReader(js))
			if err != nil {
				t.Fatal(err)
			}
			r, err := query.Compile(p, s.Horizon)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Ingest(0, s); err != nil {
				t.Fatal(err)
			}
			out.Write(mustJSON(t, r.Result()))
		}
		out.Write(mustJSON(t, s.Events()))
		if err := s.WriteJobsCSV(&out); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteTasksCSV(&out); err != nil {
			t.Fatal(err)
		}
		out.Write(mustJSON(t, s.Tenants()))
		return out.Bytes()
	}
	want := observe(base)

	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 8; round++ {
		names := append(slices.Clone(base.TenantNames), "unused")
		perm := rng.Perm(len(names))
		s := &cluster.Schedule{
			Capacity:    base.Capacity,
			Horizon:     base.Horizon,
			TenantNames: make([]string, len(names)),
			Jobs:        slices.Clone(base.Jobs),
			Tasks:       slices.Clone(base.Tasks),
		}
		for i, name := range names {
			s.TenantNames[perm[i]] = name
		}
		for i := range s.Jobs {
			s.Jobs[i].Tenant = int32(perm[s.Jobs[i].Tenant])
		}
		for i := range s.Tasks {
			s.Tasks[i].Tenant = int32(perm[s.Tasks[i].Tenant])
		}
		if !s.Equal(base) || !base.Equal(s) {
			t.Fatalf("round %d: a permuted tenant table is not Equal", round)
		}
		if got := observe(s); !bytes.Equal(got, want) {
			t.Fatalf("round %d: permuting the tenant table %v changed what the schedule renders", round, s.TenantNames)
		}
		if !reflect.DeepEqual(s.JobsByTenant("unused"), []cluster.JobRecord(nil)) || s.PreemptionCount("unused", nil) != 0 {
			t.Fatalf("round %d: an unused tenant has records", round)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
