package cluster

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteTasksCSV streams the task schedule as CSV — the raw material for
// external plotting or for feeding Tempo's trace-harvesting path from a
// file. Columns: job_id, tenant, kind, attempt, start_sec, end_sec,
// outcome.
func (s *Schedule) WriteTasksCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"job_id", "tenant", "kind", "attempt", "start_sec", "end_sec", "outcome"}); err != nil {
		return fmt.Errorf("cluster: writing csv header: %w", err)
	}
	for i := range s.Tasks {
		t := &s.Tasks[i]
		rec := []string{
			s.Jobs[t.Job].ID,
			s.TenantNames[t.Tenant],
			t.Kind.String(),
			strconv.Itoa(t.Attempt),
			formatSec(t.Start),
			formatSec(t.End),
			t.Outcome.String(),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("cluster: writing csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJobsCSV streams job outcomes as CSV. Columns: job_id, tenant,
// submit_sec, finish_sec, deadline_sec, completed, killed.
func (s *Schedule) WriteJobsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"job_id", "tenant", "submit_sec", "finish_sec", "deadline_sec", "completed", "killed"}); err != nil {
		return fmt.Errorf("cluster: writing csv header: %w", err)
	}
	for i := range s.Jobs {
		j := &s.Jobs[i]
		rec := []string{
			j.ID,
			s.TenantNames[j.Tenant],
			formatSec(j.Submit),
			formatSec(j.Finish),
			formatSec(j.Deadline),
			strconv.FormatBool(j.Completed),
			strconv.FormatBool(j.Killed),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("cluster: writing csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatSec(d interface{ Seconds() float64 }) string {
	return strconv.FormatFloat(d.Seconds(), 'f', 3, 64)
}
