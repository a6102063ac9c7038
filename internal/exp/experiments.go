package exp

import (
	"fmt"
	"strings"
)

// Result is what every experiment returns.
type Result interface {
	// Render prints the rows or series the paper reports.
	Render() string
	// Metrics are the headline quantities, by name, that the root
	// benchmark reports.
	Metrics() map[string]float64
}

// Experiment is one entry of the evaluation: a table, a figure or an
// ablation.
type Experiment struct {
	Name string
	// Run regenerates the entry. iterations is the control-loop length of
	// the loop experiments, 0 meaning the entry's default; the other
	// entries ignore it.
	Run func(seed int64, iterations int) (Result, error)
}

// Experiments is the table of every entry, in the paper's order. The
// experiments command, the root benchmark and the golden test all loop
// over it.
var Experiments = []Experiment{
	{"table1", func(s int64, _ int) (Result, error) { return result(Table1(s)) }},
	{"table2", func(s int64, _ int) (Result, error) { return result(Table2(s)) }},
	{"figure1", func(int64, int) (Result, error) { return result(Figure1()) }},
	{"figure2", func(s int64, _ int) (Result, error) { return result(Figure2(s)) }},
	{"figure5", func(s int64, _ int) (Result, error) { return result(Figure5(s)) }},
	{"figure6", func(s int64, n int) (Result, error) { return result(Figure6(s, n)) }},
	{"figure7", func(s int64, _ int) (Result, error) { return result(Figure7(s)) }},
	{"figure8", func(s int64, _ int) (Result, error) { return result(Figure8(s)) }},
	{"figure9", func(s int64, n int) (Result, error) { return result(Figure9(s, n)) }},
	{"figure10", func(s int64, _ int) (Result, error) { return result(Figure10(s)) }},
	{"figure11", func(s int64, _ int) (Result, error) { return result(Figure11(s)) }},
	{"figure12", func(s int64, _ int) (Result, error) { return result(Figure12(s)) }},
	{"proxy", func(int64, int) (Result, error) { return ProxyCounterexample(), nil }},
	{"strategies", func(s int64, n int) (Result, error) { return result(CompareStrategies(s, n)) }},
	{"guard", func(s int64, n int) (Result, error) { return result(GuardAblation(s, n)) }},
	{"gradient", func(s int64, _ int) (Result, error) { return result(GradientAblation(s)) }},
}

// result converts a typed experiment return into a Result, so a failed
// run never yields a non-nil interface around a nil pointer.
func result[R Result](r R, err error) (Result, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// The Metrics methods below implement Result.

func (r *Table1Result) Metrics() map[string]float64 {
	return map[string]float64{"tenants": float64(len(r.Rows))}
}

func (r *Table2Result) Metrics() map[string]float64 {
	return map[string]float64{"worst-RAE": r.WorstRAE, "predicted-tasks/sec": r.TasksPerSec}
}

func (r *Figure1Result) Metrics() map[string]float64 {
	return map[string]float64{"effective-util": r.EffectiveUtilization}
}

func (r *Figure2Result) Metrics() map[string]float64 {
	return map[string]float64{"capped-while-idle-frac": r.CappedWhileIdleFrac}
}

func (r *Figure5Result) Metrics() map[string]float64 {
	return map[string]float64{"tenants": float64(len(r.Tenants))}
}

func (r *Figure6Result) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, s := range r.Series {
		m[fmt.Sprintf("AJR-improvement-slack%.0f", s.Slack*100)] = s.Improvement
	}
	return m
}

func (r *Figure7Result) Metrics() map[string]float64 {
	return map[string]float64{"map-preempt-frac": r.OverallMapFrac, "reduce-preempt-frac": r.OverallReduceFrac}
}

func (r *Figure8Result) Metrics() map[string]float64 {
	return map[string]float64{"besteffort-reduce-p50-sec": r.ReduceBestEffort[1]}
}

func (r *Figure9Result) Metrics() map[string]float64 {
	return map[string]float64{"AJR-improvement": r.Improvements[0], "reduce-util-improvement": r.Improvements[3]}
}

func (r *Figure10Result) Metrics() map[string]float64 {
	return map[string]float64{"besteffort-p90/p10": r.WeekBestEffortSpread}
}

func (r *Figure11Result) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		m["AJR-"+row.Interval.String()] = row.NormalizedAJR
	}
	return m
}

func (r *Figure12Result) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		m[fmt.Sprintf("max-err-pct-%.0f%%src", row.SourceFraction*100)] = row.MaxAbsError
	}
	return m
}

func (r *ProxyCounterexampleResult) Metrics() map[string]float64 {
	feasible := 0.0
	if r.PALDFeasible {
		feasible = 1
	}
	return map[string]float64{"pald-feasible": feasible}
}

func (r *StrategyComparisonResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		m[row.Strategy+"-AJR-improvement"] = row.AJRImprovement
	}
	return m
}

func (r *GuardAblationResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		m[strings.ReplaceAll(row.Name, " ", "_")+"-worst-regression"] = row.WorstStepRegression
	}
	return m
}

func (r *GradientAblationResult) Metrics() map[string]float64 {
	return map[string]float64{"loess-cosine": r.LoessCosine, "fd-cosine": r.FDCosine}
}
