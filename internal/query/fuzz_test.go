package query

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// FuzzQueryPlan hammers the untrusted-input path: arbitrary bytes must
// either be rejected with a *PlanError-shaped message or produce a plan
// that compiles and evaluates without panicking, within bounds. Every
// plan it accepts must also answer alike fed through Ingest alone, as
// Session.Query feeds it, and through PushTick, its deltas replayed
// last-write-wins over two different schedules (checkDeltasReplay).
// Plans are the one client-authored structure tempod executes, so this
// is the fuzz surface the nightly tier grows.
func FuzzQueryPlan(f *testing.F) {
	seeds := []string{
		`{"version":1,"source":"events"}`,
		`{"version":1,"source":"jobs","from":"10m","to":"2h","ops":[
			{"op":"filter","field":"tenant","eq":"etl"},
			{"op":"map","fields":["tenant","response_seconds"]},
			{"op":"group_by","by":["tenant"]},
			{"op":"window","size":"30m"},
			{"op":"aggregate","aggs":[{"fn":"p99","field":"response_seconds","as":"p99_wait"}]},
			{"op":"limit","n":100}]}`,
		`{"version":1,"source":"events","ops":[
			{"op":"aggregate","slos":[{"queue":"a","metric":"avg_response_time"},
				{"queue":"","metric":"utilization","effective_only":true}]}]}`,
		`{"version":1,"source":"tasks","ops":[
			{"op":"filter","field":"outcome","in":["finished","preempted"]},
			{"op":"group_by","by":["tenant","task_kind"]},
			{"op":"window","size":"tick"},
			{"op":"aggregate","aggs":[{"fn":"sum","field":"duration_seconds"}]}]}`,
		`{"version":1,"source":"events","ops":[{"op":"filter","field":"time","ge":"30m","lt":"90m"},{"op":"limit","n":1}]}`,
		`{"version":2,"source":"events"}`,
		`{"version":1,"source":"events","ops":[{"op":"join"}]}`,
		`not json at all`,
		`{"version":1,"source":"events","ops":[{"op":"window","size":"-5m"}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(bytes.NewReader(data))
		if err != nil {
			if !strings.Contains(err.Error(), "query: invalid plan") {
				t.Fatalf("rejection without the plan-error prefix: %v", err)
			}
			return
		}
		r, err := Compile(p, 100*time.Second)
		if err != nil {
			t.Fatalf("validated plan failed to compile: %v", err)
		}
		r.maxGroups = 100
		checkDeltasReplay(t, p, r.maxGroups, tickSchedule(), randomSchedule(1))
		s := tickSchedule()
		for i := 0; i < 2; i++ {
			if _, err := r.PushTick(i, s); err != nil {
				// The only admissible runtime failure is the cardinality guard.
				if strings.Contains(err.Error(), "distinct (window, group) cells") {
					return
				}
				t.Fatalf("push failed: %v", err)
			}
		}
		r.Result()
	})
}
