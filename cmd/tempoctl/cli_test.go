package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestLoadVerifies drives an in-process tempod at 8 clusters. The
// timings vary run to run, so it pins every other field of the report.
func TestLoadVerifies(t *testing.T) {
	stdout, stderr, code := runCLI(t, "load", "-clusters", "8", "-json")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	var rep struct {
		Clusters    int      `json:"clusters"`
		Iterations  int      `json:"iterations"`
		Ticks       int      `json:"ticks"`
		QSQueries   int      `json:"qs_queries"`
		QueryCalls  int      `json:"query_calls"`
		WhatIfCalls int      `json:"whatif_calls"`
		Verified    int      `json:"verified"`
		Mismatched  []string `json:"mismatched"`
	}
	if err := json.Unmarshal([]byte(stdout[strings.Index(stdout, "{"):]), &rep); err != nil {
		t.Fatalf("decoding the drive report: %v\n%s", err, stdout)
	}
	if rep.Clusters != 8 || rep.Iterations != 3 || rep.Ticks != 24 || rep.QSQueries != 16 ||
		rep.QueryCalls != 16 || rep.WhatIfCalls != 8 || rep.Verified != 8 || len(rep.Mismatched) != 0 {
		t.Fatalf("drive report %+v, want 8 clusters x 3 iterations: 24 ticks, 16 qs, 16 ad-hoc, 8 what-if, 8 verified", rep)
	}
}

// TestRejectsBadFlags checks that a value or combination that would
// silently become something else fails, naming the flag.
func TestRejectsBadFlags(t *testing.T) {
	spec := scenarios + "/flash-crowd.json"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"run", "-spec", spec, "-mix", "ec2", "-seed", "3"}, "-spec and -dir cannot be combined with -mix, -seed"},
		{[]string{"run", "-dir", scenarios, "-iterations", "2"}, "cannot be combined with -iterations"},
		{[]string{"run", "-spec", spec, "-dir", scenarios}, "-spec and -dir cannot be combined"},
		{[]string{"run", "-dir", scenarios, "-report", "r.json"}, "-report requires -spec"},
		{[]string{"-scale", "-1", "-iterations", "1"}, "negative scale"},
		{[]string{"simulate", "-trace", "t.json", "-horizon-hours", "-1"}, "negative -horizon-hours"},
		{[]string{"experiments", "-run", "proxy", "-iters", "-3"}, "negative -iters"},
		{[]string{"load", "-clusters", "-5"}, "non-positive -clusters"},
		{[]string{"trace", "-scale", "-1"}, "non-positive -scale"},
		{[]string{"trace", "-scale", "0"}, "non-positive -scale"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			stdout, stderr, code := runCLI(t, tc.args...)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1 (stdout: %s)", code, stdout)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr %q does not contain %q", stderr, tc.want)
			}
		})
	}
}
