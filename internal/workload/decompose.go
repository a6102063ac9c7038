package workload

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the third future-work direction of §10: supporting
// tenants whose workloads mix several statistical characteristics. The
// paper's suggested approach — "decompose the workloads and then distribute
// the workloads to separate tenants" — is realized by clustering a tenant's
// jobs by size and rewriting the trace so each cluster becomes its own
// sub-queue. Tempo can then attach distinct SLOs and RM parameters to each
// sub-queue (the hierarchical-tenant workaround the paper mentions for
// fine-grained SLOs).

// Decomposition describes how one tenant's jobs were split.
type Decomposition struct {
	// Tenant is the original queue name.
	Tenant string
	// SubTenants are the new queue names, ordered by increasing job size.
	SubTenants []string
	// Boundaries are the log10(total work seconds) cluster centers.
	Centers []float64
	// Assignment maps job ID to sub-tenant index.
	Assignment map[string]int
}

// SubTenantName returns the canonical name of the i-th sub-queue of a
// tenant (e.g. "DEV/size0").
func SubTenantName(tenant string, i int) string {
	return fmt.Sprintf("%s/size%d", tenant, i)
}

// Decompose clusters the tenant's jobs into k size classes (1-D k-means on
// log total work, deterministic quantile initialization) and returns a new
// trace in which each class is submitted to its own sub-queue, together
// with the decomposition metadata. Other tenants pass through unchanged.
func Decompose(trace *Trace, tenant string, k int) (*Trace, *Decomposition, error) {
	if k < 2 {
		return nil, nil, fmt.Errorf("workload: decompose needs k >= 2, got %d", k)
	}
	jobs := trace.ByTenant(tenant)
	if len(jobs) < k {
		return nil, nil, fmt.Errorf("workload: tenant %q has %d jobs, need at least k=%d", tenant, len(jobs), k)
	}
	sizes := make([]float64, len(jobs))
	for i := range jobs {
		w := jobs[i].TotalWork().Seconds()
		if w < 1e-3 {
			w = 1e-3
		}
		sizes[i] = math.Log10(w)
	}
	centers, assign := kmeans1D(sizes, k)

	dec := &Decomposition{
		Tenant:     tenant,
		Centers:    centers,
		Assignment: make(map[string]int, len(jobs)),
	}
	for i := 0; i < k; i++ {
		dec.SubTenants = append(dec.SubTenants, SubTenantName(tenant, i))
	}
	for i := range jobs {
		dec.Assignment[jobs[i].ID] = assign[i]
	}

	out := &Trace{Name: trace.Name + "+decomposed", Horizon: trace.Horizon}
	out.Jobs = make([]JobSpec, len(trace.Jobs))
	for i := range trace.Jobs {
		j := trace.Jobs[i]
		if j.Tenant == tenant {
			j.Tenant = dec.SubTenants[dec.Assignment[j.ID]]
		}
		out.Jobs[i] = j
	}
	out.Sort()
	return out, dec, nil
}

// Recompose maps a sub-queue schedule quantity back to original tenants:
// given a tenant name possibly produced by SubTenantName, it returns the
// original tenant. Names without the separator pass through.
func Recompose(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '/' {
			return name[:i]
		}
	}
	return name
}

// kmeans1D is deterministic Lloyd's algorithm in one dimension with
// quantile-initialized centers. It returns the sorted centers and each
// point's cluster index.
func kmeans1D(points []float64, k int) ([]float64, []int) {
	sorted := append([]float64(nil), points...)
	sort.Float64s(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	centers := make([]float64, k)
	for i := 0; i < k; i++ {
		// Evenly spread initial centers over the value range; quantile
		// initialization can collapse several centers onto one value when
		// a cluster holds most of the mass.
		centers[i] = lo + (float64(i)+0.5)/float64(k)*(hi-lo)
	}
	assign := make([]int, len(points))
	for iter := 0; iter < 100; iter++ {
		changed := iter == 0 // the all-zero initial assignment is not a fixpoint
		for i, p := range points {
			best, bestD := assign[i], math.Abs(p-centers[assign[i]])
			for c, center := range centers {
				if d := math.Abs(p - center); d < bestD-1e-12 {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		sums := make([]float64, k)
		counts := make([]int, k)
		for i, p := range points {
			sums[assign[i]] += p
			counts[assign[i]]++
		}
		for c := 0; c < k; c++ {
			if counts[c] > 0 {
				centers[c] = sums[c] / float64(counts[c])
			}
		}
		if !changed {
			break
		}
	}
	// Relabel clusters so indices increase with center value.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return centers[order[a]] < centers[order[b]] })
	rank := make([]int, k)
	for newIdx, old := range order {
		rank[old] = newIdx
	}
	outCenters := make([]float64, k)
	for old, r := range rank {
		outCenters[r] = centers[old]
	}
	for i := range assign {
		assign[i] = rank[assign[i]]
	}
	return outCenters, assign
}
