package exp

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/scenario"
	"tempo/internal/workload"
)

// Table1Row characterizes one tenant's generated workload, matching the
// qualitative Table 1 of the paper with measured quantities.
type Table1Row struct {
	Tenant         string
	Characteristic string
	Jobs           int
	MeanMaps       float64
	MeanReduces    float64
	MeanMapSec     float64
	MeanReduceSec  float64
	Deadlines      bool
}

// Table1Result is the tenant-characteristics table.
type Table1Result struct {
	Horizon time.Duration
	Rows    []Table1Row
}

// Table1 generates the Company ABC mix and summarizes each tenant, the
// measured counterpart of the paper's Table 1.
func Table1(seed int64) (*Table1Result, error) {
	horizon := 24 * time.Hour
	tr, err := ABCTrace(horizon, seed)
	if err != nil {
		return nil, err
	}
	char := map[string]string{
		"BI":  "I/O-intensive SQL queries",
		"DEV": "Mixture of different types of jobs",
		"APP": "Small, lightweight jobs",
		"STR": "Hadoop streaming jobs (map-only)",
		"MV":  "Long-running, CPU-intensive",
		"ETL": "I/O-intensive, periodic but bursty",
	}
	res := &Table1Result{Horizon: horizon}
	for _, tenant := range tr.Tenants() {
		jobs := tr.ByTenant(tenant)
		var maps, reds, mapSec, redSec float64
		deadlines := false
		for i := range jobs {
			for _, st := range jobs[i].Stages {
				for _, task := range st.Tasks {
					if task.Kind == workload.Map {
						maps++
						mapSec += task.Duration.Seconds()
					} else {
						reds++
						redSec += task.Duration.Seconds()
					}
				}
			}
			if jobs[i].Deadline > 0 {
				deadlines = true
			}
		}
		row := Table1Row{
			Tenant:         tenant,
			Characteristic: char[tenant],
			Jobs:           len(jobs),
			Deadlines:      deadlines,
		}
		if n := float64(len(jobs)); n > 0 {
			row.MeanMaps = maps / n
			row.MeanReduces = reds / n
		}
		if maps > 0 {
			row.MeanMapSec = mapSec / maps
		}
		if reds > 0 {
			row.MeanReduceSec = redSec / reds
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the table.
func (r *Table1Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Tenant,
			row.Characteristic,
			fmt.Sprintf("%d", row.Jobs),
			fmt.Sprintf("%.1f", row.MeanMaps),
			fmt.Sprintf("%.1f", row.MeanReduces),
			fmt.Sprintf("%.0fs", row.MeanMapSec),
			fmt.Sprintf("%.0fs", row.MeanReduceSec),
			fmt.Sprintf("%v", row.Deadlines),
		})
	}
	return "Table 1: tenant characteristics (generated, " + r.Horizon.String() + ")\n" +
		table([]string{"tenant", "characteristic", "jobs", "maps/job", "reds/job", "map dur", "red dur", "deadlines"}, rows)
}

// Table2Row is one tenant's schedule-prediction error.
type Table2Row struct {
	Tenant string
	RAE    float64
	RSE    float64
	Jobs   int
}

// Table2Result is the prediction-error experiment (§8.1).
type Table2Result struct {
	Rows          []Table2Row
	TotalTasks    int
	PredictSecs   float64
	TasksPerSec   float64
	WorstTenant   string
	WorstRAE      float64
	PreemptedJobs int
}

// Table2 validates the Schedule Predictor against a noisy emulation of the
// production cluster, reproducing the two error sources of §8.1: (1) the
// cluster itself is noisy — failures, user kills, duration jitter,
// preemptions — and (2) the job traces feeding the predictor are
// inaccurate, because task durations are estimated from history rather
// than known ("for killed and failed tasks, the task start time and finish
// time are not recorded accurately"). The experiment replays the Company
// ABC mix under the expert RM configuration with the full noise model as
// ground truth, predicts the schedule from a duration-perturbed copy of
// the trace, and reports per-tenant RAE/RSE of predicted job finish times.
func Table2(seed int64) (*Table2Result, error) {
	horizon := 48 * time.Hour
	tr, err := ABCTrace(horizon, seed)
	if err != nil {
		return nil, err
	}
	cfg := scenario.ExpertABCConfig(ABCCapacity)
	observed, err := cluster.Run(tr, cfg, cluster.Options{
		Noise: &cluster.NoiseModel{
			DurationSigma: 0.15,
			FailureProb:   0.02,
			JobKillProb:   0.01,
			Seed:          seed + 1,
		},
		Horizon: horizon + 12*time.Hour,
	})
	if err != nil {
		return nil, err
	}
	// The predictor's input: the same jobs with durations as a DBA's
	// history-based estimates would have them — each task's duration
	// perturbed by a mean-preserving lognormal estimation error.
	estimated := perturbDurations(tr, 0.08, seed+2)
	start := time.Now()
	predicted, err := cluster.Predict(estimated, cfg)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start).Seconds()

	// Compare per-job completion times (finish − submit). Comparing raw
	// absolute finish timestamps would make the denominator the spread of
	// submission times across the whole 48-hour trace and trivialize the
	// metric; the spread of completion durations is the meaningful
	// yardstick for "how well did we predict when this job finishes".
	predFinish := make(map[string]time.Duration, len(predicted.Jobs))
	for i := range predicted.Jobs {
		j := &predicted.Jobs[i]
		if j.Completed {
			predFinish[j.ID] = j.Finish - j.Submit
		}
	}
	perTenantPred := map[string][]float64{}
	perTenantObs := map[string][]float64{}
	for i := range observed.Jobs {
		j := &observed.Jobs[i]
		if !j.Completed {
			continue
		}
		p, ok := predFinish[j.ID]
		if !ok {
			continue
		}
		tenant := observed.TenantNames[j.Tenant]
		perTenantPred[tenant] = append(perTenantPred[tenant], p.Seconds())
		perTenantObs[tenant] = append(perTenantObs[tenant], (j.Finish - j.Submit).Seconds())
	}
	res := &Table2Result{
		TotalTasks:  tr.TaskCount(),
		PredictSecs: elapsed,
	}
	if elapsed > 0 {
		res.TasksPerSec = float64(tr.TaskCount()) / elapsed
	}
	for _, tenant := range sortedKeys(perTenantObs) {
		absErr, err := rae(perTenantPred[tenant], perTenantObs[tenant])
		if err != nil {
			return nil, err
		}
		sqErr, err := rse(perTenantPred[tenant], perTenantObs[tenant])
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table2Row{
			Tenant: tenant, RAE: absErr, RSE: sqErr, Jobs: len(perTenantObs[tenant]),
		})
		if absErr > res.WorstRAE {
			res.WorstRAE, res.WorstTenant = absErr, tenant
		}
	}
	res.PreemptedJobs = observed.PreemptionCount("", nil)
	return res, nil
}

// perturbDurations returns a copy of the trace with every task duration
// multiplied by a mean-preserving lognormal factor exp(σZ − σ²/2) —
// modelling history-based duration estimates.
func perturbDurations(tr *workload.Trace, sigma float64, seed int64) *workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	out := &workload.Trace{Name: tr.Name + "-estimated", Horizon: tr.Horizon}
	out.Jobs = make([]workload.JobSpec, len(tr.Jobs))
	for i := range tr.Jobs {
		j := tr.Jobs[i]
		stages := make([]workload.StageSpec, len(j.Stages))
		for si, st := range j.Stages {
			tasks := make([]workload.TaskSpec, len(st.Tasks))
			for ti, task := range st.Tasks {
				f := math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
				d := time.Duration(float64(task.Duration) * f)
				if d < time.Millisecond {
					d = time.Millisecond
				}
				tasks[ti] = workload.TaskSpec{Kind: task.Kind, Duration: d}
			}
			stages[si] = workload.StageSpec{DependsOn: st.DependsOn, Tasks: tasks}
		}
		j.Stages = stages
		out.Jobs[i] = j
	}
	return out
}

// Render prints the table.
func (r *Table2Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Tenant,
			fmt.Sprintf("%.4f", row.RAE),
			fmt.Sprintf("%.4f", row.RSE),
			fmt.Sprintf("%d", row.Jobs),
		})
	}
	head := fmt.Sprintf("Table 2: job finish time estimation errors (%d tasks, %.0f tasks/sec predicted)\n",
		r.TotalTasks, r.TasksPerSec)
	return head + table([]string{"tenant", "RAE", "RSE", "jobs"}, rows)
}
