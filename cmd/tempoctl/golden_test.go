package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"tempo/internal/exp"
	"tempo/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/cli/*.golden from the current binary")

// cliRow is one pinned invocation. $TMP in args stands for a per-test
// scratch directory that already holds trace.json (the two-tenant mix,
// 2 hours, seed 1); outs name files the command writes there, pinned
// after its stdout and stderr. Rows that must print the same bytes share
// a golden.
type cliRow struct {
	name, golden string
	args, outs   []string
}

const scenarios = "../../internal/scenario/testdata/scenarios"

var cliRows = []cliRow{
	{name: "tempoctl-default"},
	{name: "tempoctl-doc", args: []string{"-mix", "ec2", "-capacity", "48", "-iterations", "15", "-interval", "1h", "-deadline-slack", "0.25", "-deadline-target", "0.05"}},
	{name: "tempoctl-happy", args: []string{"-mix", "ec2", "-capacity", "16", "-scale", "0.8", "-iterations", "2", "-interval", "10m", "-seed", "5", "-parallelism", "2"}},
	{name: "tempoctl-weighted-sum", args: []string{"-mix", "two-tenant", "-strategy", "weighted-sum", "-deadline-target", "0.05"}},
	{name: "tempoctl-random", args: []string{"-strategy", "random", "-capacity", "32"}},
	{name: "tempoctl-candidates", args: []string{"-candidates", "0", "-interval", "37m"}},
	{name: "tempoctl-short", args: []string{"-iterations", "2", "-parallelism", "2"}},
	{name: "tempoctl-report", args: []string{"-iterations", "2", "-quiet", "-report", "$TMP/report.json"}, outs: []string{"report.json"}},
	{name: "run-weighted-sum", golden: "tempoctl-weighted-sum", args: []string{"run", "-mix", "two-tenant", "-strategy", "weighted-sum", "-deadline-target", "0.05"}},
	{name: "run-flash-crowd", args: []string{"run", "-spec", scenarios + "/flash-crowd.json"}},
	{name: "run-flash-crowd-parallelism", golden: "run-flash-crowd", args: []string{"run", "-spec", scenarios + "/flash-crowd.json", "-parallelism", "8"}},
	{name: "run-flash-crowd-report", args: []string{"run", "-spec", scenarios + "/flash-crowd.json", "-report", "$TMP/report.json", "-parallelism", "3"}, outs: []string{"report.json"}},
	{name: "run-dir", args: []string{"run", "-dir", scenarios}},
	{name: "run-dir-quiet", args: []string{"run", "-dir", scenarios, "-quiet"}},
	{name: "experiments-all", args: []string{"experiments"}},
	{name: "experiments-proxy", args: []string{"experiments", "-run", "proxy"}},
	{name: "experiments-figure6", args: []string{"experiments", "-run", "figure6"}},
	{name: "experiments-figure6-11", args: []string{"experiments", "-run", "figure6,figure11", "-seed", "7"}},
	{name: "experiments-iters", args: []string{"experiments", "-run", "figure7,guard", "-seed", "7", "-iters", "6", "-parallelism", "2"}},
	{name: "trace-two-tenant", args: []string{"trace", "-mix", "two-tenant", "-hours", "2"}},
	{name: "trace-abc", args: []string{"trace", "-mix", "abc", "-hours", "24", "-scale", "0.5", "-seed", "1"}},
	{name: "trace-out", args: []string{"trace", "-mix", "two-tenant", "-hours", "2", "-out", "$TMP/trace.json"}, outs: []string{"trace.json"}},
	{name: "simulate-single", args: []string{"simulate", "-trace", "$TMP/trace.json"}},
	{name: "simulate-config", args: []string{"simulate", "-trace", "$TMP/trace.json", "-config", "testdata/rm-a.json", "-horizon-hours", "1.5",
		"-out-tasks", "$TMP/tasks.csv", "-out-jobs", "$TMP/jobs.csv"}, outs: []string{"tasks.csv", "jobs.csv"}},
	{name: "simulate-noise", args: []string{"simulate", "-trace", "$TMP/trace.json", "-noise", "-seed", "7", "-capacity", "24"}},
	{name: "simulate-compare", args: []string{"simulate", "-trace", "$TMP/trace.json", "-compare", "testdata/rm-a.json,testdata/rm-b.json", "-parallelism", "2"}},
}

// wallClock masks the fields that vary run to run.
var wallClock = []struct {
	re *regexp.Regexp
	to string
}{
	{regexp.MustCompile(`\d+ tasks/sec`), "N tasks/sec"},
	{regexp.MustCompile(`\([0-9.]+s\) =====`), "(T) ====="},
	{regexp.MustCompile(`\(\S+ wall\)`), "(T wall)"},
	{regexp.MustCompile(` in \S+ \(`), " in T ("},
}

// pin masks one output and renders it for a golden file: the bytes, or
// their SHA-256 when they exceed 16 KB.
func pin(out, tmp string) string {
	out = strings.ReplaceAll(out, tmp, "$TMP")
	for _, m := range wallClock {
		out = m.re.ReplaceAllString(out, m.to)
	}
	if len(out) > 16<<10 {
		return fmt.Sprintf("sha256 %x (%d bytes)\n", sha256.Sum256([]byte(out)), len(out))
	}
	return out
}

// TestCLIGolden runs every documented invocation and compares its masked
// output with testdata/cli; -update rewrites the goldens.
func TestCLIGolden(t *testing.T) {
	tmp := t.TempDir()
	trace, err := workload.Generate(exp.TwoTenantProfiles(1), workload.GenerateOptions{
		Horizon: 2 * time.Hour, Seed: 1, Name: "two-tenant",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveFile(filepath.Join(tmp, "trace.json")); err != nil {
		t.Fatal(err)
	}
	for _, row := range cliRows {
		t.Run(row.name, func(t *testing.T) {
			args := make([]string, len(row.args))
			for i, a := range row.args {
				args[i] = strings.ReplaceAll(a, "$TMP", tmp)
			}
			stdout, stderr, code := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("exit code = %d, stderr: %s", code, stderr)
			}
			got := pin(stdout, tmp)
			if stderr != "" {
				got += "--- stderr\n" + pin(stderr, tmp)
			}
			for _, name := range row.outs {
				b, err := os.ReadFile(filepath.Join(tmp, name))
				if err != nil {
					t.Fatal(err)
				}
				got += "--- " + name + "\n" + pin(string(b), tmp)
			}
			golden := row.golden
			if golden == "" {
				golden = row.name
			}
			path := filepath.Join("testdata", "cli", golden+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s (-update to accept):\n%s", path, got)
			}
		})
	}
}
