package exp

import (
	"fmt"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/scenario"
	"tempo/internal/workload"
)

// Figure1Result quantifies the wasted utilization caused by preemption in
// the two-tenant scenario of Figure 1.
type Figure1Result struct {
	// RawUtilization is the busy fraction counting all attempts.
	RawUtilization float64
	// EffectiveUtilization excludes the killed attempts (region I).
	EffectiveUtilization float64
	// PreemptedTasks is the number of killed attempts of tenant A.
	PreemptedTasks int
	// WastedContainerTime is region I.
	WastedContainerTime time.Duration
}

// Figure1 reproduces the preemption-waste illustration: tenant A grabs the
// full cluster, tenant B arrives just after with a 1-unit preemption
// timeout, A's freshly-started tasks are killed and restarted.
func Figure1() (*Figure1Result, error) {
	unit := time.Minute
	capacity := 10
	a := workload.NewMapReduceJob("a", "A", 0, uniformDurations(capacity, 3*unit), nil)
	b := workload.NewMapReduceJob("b", "B", 1, uniformDurations(capacity/2, 2*unit), nil)
	tr := &workload.Trace{Name: "fig1", Horizon: time.Hour, Jobs: []workload.JobSpec{a, b}}
	tr.Sort()
	cfg := cluster.Config{TotalContainers: capacity, Tenants: map[string]cluster.TenantConfig{
		"A": {Weight: 1},
		"B": {Weight: 1, MinShare: capacity / 2, MinSharePreemptTimeout: unit},
	}}
	s, err := cluster.Predict(tr, cfg)
	if err != nil {
		return nil, err
	}
	useful, wasted := s.ContainerSeconds()
	res := &Figure1Result{
		PreemptedTasks:      s.PreemptionCount("A", nil),
		WastedContainerTime: wasted,
	}
	busy := useful + wasted
	// Utilization over the busy span of the schedule.
	span := time.Duration(capacity) * s.Horizon
	if span > 0 {
		res.RawUtilization = float64(busy) / float64(span)
		res.EffectiveUtilization = float64(useful) / float64(span)
	}
	return res, nil
}

// Render prints the figure's numbers.
func (r *Figure1Result) Render() string {
	return fmt.Sprintf(`Figure 1: wasted utilization due to preemption
raw utilization        %.3f
effective utilization  %.3f
preempted tasks (A)    %d
wasted container time  %s
`, r.RawUtilization, r.EffectiveUtilization, r.PreemptedTasks, r.WastedContainerTime)
}

func uniformDurations(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// Figure2Result captures the limit-underuse phenomenon of Figure 2: static
// per-tenant limits leave one tenant capped while the other idles.
type Figure2Result struct {
	// UsageA and UsageB are downsampled container-usage series.
	UsageA, UsageB []timePoint
	// LimitA and LimitB are the configured max shares.
	LimitA, LimitB int
	// CappedWhileIdleFrac is the fraction of the day during which one
	// tenant sat at its limit while the other used less than half of its
	// own — resources the limits prevented from flowing.
	CappedWhileIdleFrac float64
}

// Figure2 emulates a day of two anti-correlated tenants under static
// resource limits.
func Figure2(seed int64) (*Figure2Result, error) {
	horizon := 24 * time.Hour
	capacity := 60
	dayShift := func(t time.Duration) float64 { // busy during the day
		h := t.Hours()
		frac := h / 24
		if frac > 0.25 && frac < 0.6 {
			return 3
		}
		return 0.3
	}
	nightShift := func(t time.Duration) float64 { // busy at night (ETL-like)
		h := t.Hours()
		frac := h / 24
		if frac < 0.2 || frac > 0.7 {
			return 3
		}
		return 0.3
	}
	pa := workload.BestEffort("A", 2.5)
	pa.Rate = dayShift
	pb := workload.DeadlineDriven("B", 2.5)
	pb.Rate = nightShift
	tr, err := workload.Generate([]workload.TenantProfile{pa, pb}, workload.GenerateOptions{
		Horizon: horizon, Seed: seed, Name: "fig2",
	})
	if err != nil {
		return nil, err
	}
	limitA, limitB := capacity/2, capacity/2
	cfg := cluster.Config{TotalContainers: capacity, Tenants: map[string]cluster.TenantConfig{
		"A": {Weight: 1, MaxShare: limitA},
		"B": {Weight: 1, MaxShare: limitB},
	}}
	s, err := cluster.Run(tr, cfg, cluster.Options{Horizon: horizon})
	if err != nil {
		return nil, err
	}
	usageA := s.UsageTimeline("A")
	usageB := s.UsageTimeline("B")
	res := &Figure2Result{
		LimitA: limitA,
		LimitB: limitB,
		UsageA: downsampleUsage(usageA, 48),
		UsageB: downsampleUsage(usageB, 48),
	}
	res.CappedWhileIdleFrac = cappedWhileIdle(usageA, usageB, limitA, limitB, horizon)
	return res, nil
}

func downsampleUsage(points []cluster.UsagePoint, n int) []timePoint {
	series := make([]timePoint, len(points))
	for i, p := range points {
		series[i] = timePoint{At: p.Time, Value: float64(p.Count)}
	}
	return downsample(series, n)
}

// cappedWhileIdle integrates the time one tenant is at its limit while the
// other uses < half of its own limit.
func cappedWhileIdle(ua, ub []cluster.UsagePoint, la, lb int, horizon time.Duration) float64 {
	stepAt := func(points []cluster.UsagePoint, t time.Duration) int {
		v := 0
		for _, p := range points {
			if p.Time > t {
				break
			}
			v = p.Count
		}
		return v
	}
	var capped time.Duration
	step := horizon / 2000
	if step <= 0 {
		step = time.Minute
	}
	for t := time.Duration(0); t < horizon; t += step {
		a, b := stepAt(ua, t), stepAt(ub, t)
		if (a >= la && b < lb/2) || (b >= lb && a < la/2) {
			capped += step
		}
	}
	return float64(capped) / float64(horizon)
}

// Render prints the figure's numbers.
func (r *Figure2Result) Render() string {
	return fmt.Sprintf(`Figure 2: tenant usage vs static limits over a day
limit A                      %d containers
limit B                      %d containers
time capped while peer idle  %.1f%%
usage samples                A:%d B:%d
`, r.LimitA, r.LimitB, r.CappedWhileIdleFrac*100, len(r.UsageA), len(r.UsageB))
}

// Figure5Result holds the per-tenant workload statistics of Figure 5:
// CDFs of maps per job, reduces per job, response time, and wait time.
type Figure5Result struct {
	Tenants []string
	// Quantiles are per-tenant [p10 p50 p90] triples per statistic.
	Maps, Reduces, ResponseSec, WaitSec map[string][3]float64
}

// Figure5 simulates the ABC week under the expert configuration and
// extracts the key workload statistics.
func Figure5(seed int64) (*Figure5Result, error) {
	horizon := 48 * time.Hour
	tr, err := ABCTrace(horizon, seed)
	if err != nil {
		return nil, err
	}
	s, err := cluster.Run(tr, scenario.ExpertABCConfig(ABCCapacity), cluster.Options{Horizon: horizon + 12*time.Hour})
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{
		Tenants:     tr.Tenants(),
		Maps:        map[string][3]float64{},
		Reduces:     map[string][3]float64{},
		ResponseSec: map[string][3]float64{},
		WaitSec:     map[string][3]float64{},
	}
	firstStart := map[string]time.Duration{}
	for i := range s.Tasks {
		t := &s.Tasks[i]
		id := s.JobID(t)
		if cur, ok := firstStart[id]; !ok || t.Start < cur {
			firstStart[id] = t.Start
		}
	}
	for _, tenant := range res.Tenants {
		var maps, reds, resp, wait []float64
		counts := map[string][2]int{}
		for i := range tr.Jobs {
			j := &tr.Jobs[i]
			if j.Tenant != tenant {
				continue
			}
			m, r := 0, 0
			for _, st := range j.Stages {
				for _, task := range st.Tasks {
					if task.Kind == workload.Map {
						m++
					} else {
						r++
					}
				}
			}
			counts[j.ID] = [2]int{m, r}
		}
		ti := s.TenantIndex(tenant)
		for i := range s.Jobs {
			j := &s.Jobs[i]
			if j.Tenant != ti || !j.Completed {
				continue
			}
			c := counts[j.ID]
			maps = append(maps, float64(c[0]))
			reds = append(reds, float64(c[1]))
			resp = append(resp, (j.Finish - j.Submit).Seconds())
			if st, ok := firstStart[j.ID]; ok {
				wait = append(wait, (st - j.Submit).Seconds())
			}
		}
		res.Maps[tenant] = quantileTriple(maps)
		res.Reduces[tenant] = quantileTriple(reds)
		res.ResponseSec[tenant] = quantileTriple(resp)
		res.WaitSec[tenant] = quantileTriple(wait)
	}
	return res, nil
}

func quantileTriple(xs []float64) [3]float64 {
	c := newCDF(xs)
	return [3]float64{c.quantile(0.1), c.quantile(0.5), c.quantile(0.9)}
}

// Render prints the quantile table.
func (r *Figure5Result) Render() string {
	var rows [][]string
	for _, tenant := range r.Tenants {
		m, rd, rs, w := r.Maps[tenant], r.Reduces[tenant], r.ResponseSec[tenant], r.WaitSec[tenant]
		rows = append(rows, []string{
			tenant,
			fmt.Sprintf("%.0f/%.0f/%.0f", m[0], m[1], m[2]),
			fmt.Sprintf("%.0f/%.0f/%.0f", rd[0], rd[1], rd[2]),
			fmt.Sprintf("%.0f/%.0f/%.0f", rs[0], rs[1], rs[2]),
			fmt.Sprintf("%.0f/%.0f/%.0f", w[0], w[1], w[2]),
		})
	}
	return "Figure 5: workload statistics (p10/p50/p90)\n" +
		table([]string{"tenant", "maps", "reduces", "response s", "wait s"}, rows)
}

// Figure7Result reports the fraction of preempted map and reduce tasks per
// day of week, split by tenant class.
type Figure7Result struct {
	Days []string
	// MapFrac and ReduceFrac map tenant class ("deadline"/"besteffort") to
	// per-day preempted fractions.
	MapFrac, ReduceFrac map[string][]float64
	// Overall fractions across the whole week.
	OverallMapFrac, OverallReduceFrac float64
	// BestEffortReduceShare is the share of reduce preemptions suffered by
	// the best-effort tenant (the paper: "mostly from the best-effort
	// tenant").
	BestEffortReduceShare float64
}

// Figure7 runs a week of the preemption-prone MapReduce mix (a deadline
// tenant with hair-trigger preemption rights next to a best-effort tenant
// with long reduces — the §8.2.2 situation) under the expert configuration
// and tallies preemptions by day, kind, and tenant class.
func Figure7(seed int64) (*Figure7Result, error) {
	horizon := 7 * 24 * time.Hour
	capacity := 48
	profiles := []workload.TenantProfile{
		func() workload.TenantProfile {
			dd := workload.Cloudera("deadline", 1.6)
			dd.DeadlineFactor = workload.Uniform{Lo: 1.1, Hi: 1.8}
			dd.DeadlineParallelism = 16
			return dd
		}(),
		workload.BestEffort("besteffort", 1.4),
	}
	tr, err := workload.Generate(profiles, workload.GenerateOptions{
		Horizon: horizon, Seed: seed, Name: "fig7",
	})
	if err != nil {
		return nil, err
	}
	expert := cluster.Config{
		TotalContainers: capacity,
		Tenants: map[string]cluster.TenantConfig{
			"deadline": {
				Weight:                 2,
				MinShare:               capacity / 2,
				MinSharePreemptTimeout: 30 * time.Second,
				SharePreemptTimeout:    2 * time.Minute,
			},
			"besteffort": {Weight: 1},
		},
	}
	s, err := cluster.Run(tr, expert, cluster.Options{Horizon: horizon})
	if err != nil {
		return nil, err
	}
	days := []string{"Tue", "Wed", "Thu", "Fri", "Sat", "Sun", "Mon"}
	res := &Figure7Result{
		Days:       days,
		MapFrac:    map[string][]float64{"deadline": make([]float64, 7), "besteffort": make([]float64, 7)},
		ReduceFrac: map[string][]float64{"deadline": make([]float64, 7), "besteffort": make([]float64, 7)},
	}
	type key struct {
		tenant string
		day    int
		kind   workload.TaskKind
	}
	total := map[key]int{}
	preempted := map[key]int{}
	var allMaps, allMapsPre, allReds, allRedsPre int
	var bePre, redPre int
	for i := range s.Tasks {
		t := &s.Tasks[i]
		day := int(t.Start.Hours()/24) % 7
		tenant := s.TenantNames[t.Tenant]
		k := key{tenant, day, t.Kind}
		total[k]++
		if t.Kind == workload.Map {
			allMaps++
		} else {
			allReds++
		}
		if t.Outcome == cluster.TaskPreempted {
			preempted[k]++
			if t.Kind == workload.Map {
				allMapsPre++
			} else {
				allRedsPre++
				redPre++
				if tenant == "besteffort" {
					bePre++
				}
			}
		}
	}
	for tenant := range res.MapFrac {
		for d := 0; d < 7; d++ {
			if n := total[key{tenant, d, workload.Map}]; n > 0 {
				res.MapFrac[tenant][d] = float64(preempted[key{tenant, d, workload.Map}]) / float64(n)
			}
			if n := total[key{tenant, d, workload.Reduce}]; n > 0 {
				res.ReduceFrac[tenant][d] = float64(preempted[key{tenant, d, workload.Reduce}]) / float64(n)
			}
		}
	}
	if allMaps > 0 {
		res.OverallMapFrac = float64(allMapsPre) / float64(allMaps)
	}
	if allReds > 0 {
		res.OverallReduceFrac = float64(allRedsPre) / float64(allReds)
	}
	if redPre > 0 {
		res.BestEffortReduceShare = float64(bePre) / float64(redPre)
	}
	return res, nil
}

// Render prints the per-day preemption fractions.
func (r *Figure7Result) Render() string {
	var rows [][]string
	for _, class := range []string{"besteffort", "deadline"} {
		mapRow := []string{class + " map"}
		redRow := []string{class + " reduce"}
		for d := range r.Days {
			mapRow = append(mapRow, fmt.Sprintf("%.3f", r.MapFrac[class][d]))
			redRow = append(redRow, fmt.Sprintf("%.3f", r.ReduceFrac[class][d]))
		}
		rows = append(rows, mapRow, redRow)
	}
	head := append([]string{"series"}, r.Days...)
	return fmt.Sprintf("Figure 7: task preemptions by day (overall map %.1f%%, reduce %.1f%%, best-effort share of reduce preemptions %.0f%%)\n",
		r.OverallMapFrac*100, r.OverallReduceFrac*100, r.BestEffortReduceShare*100) +
		table(head, rows)
}

// Figure8Result holds the task-duration CDFs by kind and tenant class.
type Figure8Result struct {
	// Quantiles: [p10 p50 p90] seconds.
	MapDeadline, MapBestEffort, ReduceDeadline, ReduceBestEffort [3]float64
}

// Figure8 extracts task-duration distributions from the same mix Figure 7
// measures: the long best-effort reduces it reveals are the preemption
// victims.
func Figure8(seed int64) (*Figure8Result, error) {
	profiles := []workload.TenantProfile{
		func() workload.TenantProfile {
			dd := workload.Cloudera("deadline", 1)
			dd.DeadlineFactor = workload.Uniform{Lo: 1.1, Hi: 1.8}
			return dd
		}(),
		workload.BestEffort("besteffort", 1),
	}
	tr, err := workload.Generate(profiles, workload.GenerateOptions{
		Horizon: 24 * time.Hour, Seed: seed, Name: "fig8",
	})
	if err != nil {
		return nil, err
	}
	collect := map[string][]float64{}
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		for _, st := range j.Stages {
			for _, task := range st.Tasks {
				k := j.Tenant + "/" + task.Kind.String()
				collect[k] = append(collect[k], task.Duration.Seconds())
			}
		}
	}
	return &Figure8Result{
		MapDeadline:      quantileTriple(collect["deadline/map"]),
		MapBestEffort:    quantileTriple(collect["besteffort/map"]),
		ReduceDeadline:   quantileTriple(collect["deadline/reduce"]),
		ReduceBestEffort: quantileTriple(collect["besteffort/reduce"]),
	}, nil
}

// Render prints the quantiles.
func (r *Figure8Result) Render() string {
	rows := [][]string{
		{"map/deadline", fmt.Sprintf("%.0f/%.0f/%.0f", r.MapDeadline[0], r.MapDeadline[1], r.MapDeadline[2])},
		{"map/besteffort", fmt.Sprintf("%.0f/%.0f/%.0f", r.MapBestEffort[0], r.MapBestEffort[1], r.MapBestEffort[2])},
		{"reduce/deadline", fmt.Sprintf("%.0f/%.0f/%.0f", r.ReduceDeadline[0], r.ReduceDeadline[1], r.ReduceDeadline[2])},
		{"reduce/besteffort", fmt.Sprintf("%.0f/%.0f/%.0f", r.ReduceBestEffort[0], r.ReduceBestEffort[1], r.ReduceBestEffort[2])},
	}
	return "Figure 8: task duration distributions (p10/p50/p90 seconds)\n" +
		table([]string{"series", "duration"}, rows)
}

// Figure10Result holds the instant (moving-average) job response series.
type Figure10Result struct {
	// Week is the ABC-style week, per class.
	WeekDeadline, WeekBestEffort []timePoint
	// TwoHour is the EC2-style two-hour Facebook/Cloudera replay.
	TwoHourDeadline, TwoHourBestEffort []timePoint
	// Variability: ratio of p90 to p10 of the best-effort series (the
	// paper: best-effort "changes dramatically", deadline-driven is
	// periodic).
	WeekBestEffortSpread, WeekDeadlineSpread float64
}

// Figure10 produces the instant job response time distributions.
func Figure10(seed int64) (*Figure10Result, error) {
	res := &Figure10Result{}
	// Part 1: a (compressed) week of the two-tenant mix.
	week := 7 * 24 * time.Hour
	trWeek, err := workload.Generate(TwoTenantProfiles(0.4), workload.GenerateOptions{
		Horizon: week, Seed: seed, Name: "fig10-week",
	})
	if err != nil {
		return nil, err
	}
	sWeek, err := cluster.Run(trWeek, scenario.ExpertTwoTenantConfig(ABCCapacity), cluster.Options{Horizon: week})
	if err != nil {
		return nil, err
	}
	res.WeekDeadline = instantLatency(sWeek, "deadline", 30*time.Minute, 60)
	res.WeekBestEffort = instantLatency(sWeek, "besteffort", 30*time.Minute, 60)
	res.WeekBestEffortSpread = spread(res.WeekBestEffort)
	res.WeekDeadlineSpread = spread(res.WeekDeadline)

	// Part 2: the two-hour EC2 experiment with FB + Cloudera mixes.
	two := 2 * time.Hour
	trTwo, err := workload.Generate([]workload.TenantProfile{
		workload.Facebook("besteffort", 1),
		func() workload.TenantProfile {
			p := workload.Cloudera("deadline", 1)
			p.DeadlineFactor = workload.Uniform{Lo: 1.5, Hi: 2.5}
			return p
		}(),
	}, workload.GenerateOptions{Horizon: two, Seed: seed + 1, Name: "fig10-2h"})
	if err != nil {
		return nil, err
	}
	sTwo, err := cluster.Run(trTwo, scenario.ExpertTwoTenantConfig(EC2Capacity), cluster.Options{Horizon: two})
	if err != nil {
		return nil, err
	}
	res.TwoHourDeadline = instantLatency(sTwo, "deadline", 30*time.Minute, 40)
	res.TwoHourBestEffort = instantLatency(sTwo, "besteffort", 30*time.Minute, 40)
	return res, nil
}

func instantLatency(s *cluster.Schedule, tenant string, window time.Duration, points int) []timePoint {
	var series []timePoint
	ti := s.TenantIndex(tenant)
	for i := range s.Jobs {
		j := &s.Jobs[i]
		if j.Tenant != ti || !j.Completed {
			continue
		}
		series = append(series, timePoint{At: j.Finish, Value: (j.Finish - j.Submit).Seconds()})
	}
	ma := movingAverage(series, window)
	return downsample(ma, points)
}

func spread(series []timePoint) float64 {
	if len(series) == 0 {
		return 0
	}
	vals := make([]float64, len(series))
	for i, p := range series {
		vals[i] = p.Value
	}
	c := newCDF(vals)
	p10 := c.quantile(0.1)
	if p10 <= 0 {
		return 0
	}
	return c.quantile(0.9) / p10
}

// Render prints series summaries.
func (r *Figure10Result) Render() string {
	return fmt.Sprintf(`Figure 10: instant job response time (30-min moving average)
week series points        deadline:%d best-effort:%d
week p90/p10 spread       deadline:%.1fx best-effort:%.1fx
two-hour series points    deadline:%d best-effort:%d
`, len(r.WeekDeadline), len(r.WeekBestEffort),
		r.WeekDeadlineSpread, r.WeekBestEffortSpread,
		len(r.TwoHourDeadline), len(r.TwoHourBestEffort))
}
