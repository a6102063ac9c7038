package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary double as the tempoctl binary: when
// TEMPOCTL_RUN_MAIN is set, it runs main() with the process arguments
// instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("TEMPOCTL_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TEMPOCTL_RUN_MAIN=1")
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	err := cmd.Run()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return out.String(), errBuf.String(), ee.ExitCode()
		}
		t.Fatalf("running CLI: %v", err)
	}
	return out.String(), errBuf.String(), 0
}

// TestHappyPath runs a tiny but real control loop end to end and checks that
// flag mode renders through the scenario printer: header, trajectory table
// and summary.
func TestHappyPath(t *testing.T) {
	stdout, stderr, code := runCLI(t,
		"-mix", "ec2", "-capacity", "16", "-scale", "0.8",
		"-iterations", "2", "-interval", "10m", "-seed", "5", "-parallelism", "2")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"tempoctl: 2 tenants, 16 containers, 2 x 10min intervals, controller on",
		"iter", "switched", "reverted",
		"deadline/deadline_violations", "besteffort/avg_response_time",
		"summary: 2 switches",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	// Both loop iterations must have printed a row.
	for _, iter := range []string{"\n    0    16  ", "\n    1    16  "} {
		if !strings.Contains(stdout, iter) {
			t.Errorf("stdout missing iteration row %q:\n%s", iter, stdout)
		}
	}
}

func TestUnknownMixFails(t *testing.T) {
	_, stderr, code := runCLI(t, "-mix", "nope", "-iterations", "1")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, `unknown mix "nope"`) {
		t.Fatalf("stderr %q does not name the unknown mix", stderr)
	}
}

func TestUnknownStrategyFails(t *testing.T) {
	_, stderr, code := runCLI(t, "-strategy", "alchemy", "-iterations", "1")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, `unknown strategy "alchemy"`) {
		t.Fatalf("stderr %q does not name the unknown strategy", stderr)
	}
}
