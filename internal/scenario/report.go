package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Report is the canonical output of a scenario run. Its serialization is
// stable — fixed field order, no maps, deterministic float formatting — so
// committed golden reports diff cleanly and any behavioural drift in the
// scheduler, the workload generator, or the control loop shows up as a
// golden-file mismatch.
type Report struct {
	Scenario          string  `json:"scenario"`
	Seed              int64   `json:"seed"`
	Capacity          int     `json:"capacity"`
	IntervalMinutes   float64 `json:"interval_minutes"`
	Replay            bool    `json:"replay"`
	ControllerEnabled bool    `json:"controller_enabled"`
	// Objectives names the QS vector's components, in order.
	Objectives []string          `json:"objectives"`
	Iterations []IterationReport `json:"iterations"`
	Summary    Summary           `json:"summary"`
}

// IterationReport captures one control interval.
type IterationReport struct {
	Index int `json:"index"`
	// Capacity is the effective cluster size the interval ran with (differs
	// from the spec capacity after a mid-run capacity change).
	Capacity int `json:"capacity"`
	// Observed is the QS vector measured on the interval's task schedule.
	Observed []float64 `json:"observed"`
	// Switched and Reverted report the control loop's actions (always false
	// with the controller disabled).
	Switched bool `json:"switched"`
	Reverted bool `json:"reverted"`
	// Job counts over the interval's schedule.
	SubmittedJobs int `json:"submitted_jobs"`
	CompletedJobs int `json:"completed_jobs"`
	KilledJobs    int `json:"killed_jobs"`
	// DeadlineJobs counts submitted jobs carrying deadlines; Misses counts
	// those that completed after their deadline (zero slack).
	DeadlineJobs   int `json:"deadline_jobs"`
	DeadlineMisses int `json:"deadline_misses"`
	// Preemptions counts attempts the RM killed to feed starved tenants.
	Preemptions int `json:"preemptions"`
	// Useful/Wasted split the interval's container time: finished attempts
	// versus preempted/failed/killed ones (Figure 1's lost region).
	UsefulContainerSeconds float64 `json:"useful_container_seconds"`
	WastedContainerSeconds float64 `json:"wasted_container_seconds"`
}

// Summary aggregates the run.
type Summary struct {
	Switches           int `json:"switches"`
	Reverts            int `json:"reverts"`
	TotalPreemptions   int `json:"total_preemptions"`
	TotalCompletedJobs int `json:"total_completed_jobs"`
	// FirstObserved is iteration 0's QS vector; LastQuarterMean averages
	// the final quarter of iterations per objective.
	FirstObserved   []float64 `json:"first_observed"`
	LastQuarterMean []float64 `json:"last_quarter_mean"`
	// Improvement is the relative change from FirstObserved to
	// LastQuarterMean per objective (positive = QS reduced = SLO improved).
	Improvement []float64 `json:"improvement"`
	// FinalConfig is the RM configuration the loop converged to, sorted by
	// tenant name.
	FinalConfig []TenantConfigReport `json:"final_config"`
}

// TenantConfigReport is one tenant's final RM parameters.
type TenantConfigReport struct {
	Tenant                 string  `json:"tenant"`
	Weight                 float64 `json:"weight"`
	MinShare               int     `json:"min_share"`
	MaxShare               int     `json:"max_share"`
	SharePreemptSeconds    float64 `json:"share_preempt_seconds"`
	MinSharePreemptSeconds float64 `json:"min_share_preempt_seconds"`
}

// MarshalCanonical renders the report in its stable on-disk form: indented
// JSON with a trailing newline. Two runs of the same spec produce identical
// bytes regardless of what-if parallelism.
func (r *Report) MarshalCanonical() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, fmt.Errorf("scenario: encoding report: %w", err)
	}
	return buf.Bytes(), nil
}

// WriteJSON writes the canonical form to w.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := r.MarshalCanonical()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// SaveFile writes the canonical form to path.
func (r *Report) SaveFile(path string) error {
	b, err := r.MarshalCanonical()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
