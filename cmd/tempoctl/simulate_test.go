package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tempo/internal/workload"
)

// writeTrace generates a small two-tenant trace file for CLI runs.
func writeTrace(t *testing.T) string {
	t.Helper()
	profiles := []workload.TenantProfile{
		workload.DeadlineDriven("etl", 1.5),
		workload.BestEffort("adhoc", 1.5),
	}
	trace, err := workload.Generate(profiles, workload.GenerateOptions{
		Horizon: 30 * time.Minute, Seed: 3, Name: "cli-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := trace.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareRejectsConflictingFlags(t *testing.T) {
	trace := writeTrace(t)
	cases := []struct {
		name  string
		extra []string
		want  []string
	}{
		{"noise", []string{"-noise"}, []string{"-noise"}},
		{"config", []string{"-config", "x.json"}, []string{"-config"}},
		{"seed and capacity", []string{"-seed", "9", "-capacity", "10"}, []string{"-seed", "-capacity"}},
		{"out files", []string{"-out-tasks", "a.csv", "-out-jobs", "b.csv"}, []string{"-out-tasks", "-out-jobs"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"simulate", "-trace", trace, "-compare", "a.json,b.json"}, tc.extra...)
			_, stderr, code := runCLI(t, args...)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, "cannot be combined") {
				t.Fatalf("stderr %q does not explain the flag conflict", stderr)
			}
			for _, flag := range tc.want {
				if !strings.Contains(stderr, flag) {
					t.Errorf("stderr %q does not name the conflicting flag %s", stderr, flag)
				}
			}
		})
	}
}

func TestCompareRequiresTrace(t *testing.T) {
	_, stderr, code := runCLI(t, "simulate", "-compare", "a.json,b.json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, "-trace is required") {
		t.Fatalf("stderr %q does not mention the missing -trace", stderr)
	}
}

func TestCompareScoresConfigs(t *testing.T) {
	trace := writeTrace(t)
	dir := t.TempDir()
	cfgA := filepath.Join(dir, "a.json")
	cfgB := filepath.Join(dir, "b.json")
	if err := os.WriteFile(cfgA, []byte(`{"total_containers": 24, "tenants": {"etl": {"weight": 3}, "adhoc": {"weight": 1}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfgB, []byte(`{"total_containers": 24, "tenants": {"etl": {"weight": 1}, "adhoc": {"weight": 3}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runCLI(t, "simulate", "-trace", trace, "-compare", cfgA+","+cfgB, "-parallelism", "2")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "scored 2 configs") {
		t.Fatalf("stdout missing batch summary:\n%s", stdout)
	}
	for _, want := range []string{cfgA, cfgB, "etl AJR(s)", "adhoc AJR(s)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

func TestSingleRunHappyPath(t *testing.T) {
	trace := writeTrace(t)
	stdout, stderr, code := runCLI(t, "simulate", "-trace", trace, "-capacity", "24")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"schedule{", "tenant", "etl", "adhoc"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}
