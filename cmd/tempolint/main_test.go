package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSuiteCleanOnRealModule is the acceptance smoke test: the full
// tempolint suite loads the real module and reports nothing
// unsuppressed. A regression here means either a new invariant
// violation or an analyzer false positive — both block the lint gate.
func TestSuiteCleanOnRealModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("tempolint ./... = exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run printed findings:\n%s", stdout.String())
	}
}

// TestNoignoreSurfacesSuppressions checks drift mode: with -noignore
// the suppressed findings come back, each annotated with its recorded
// reason, and the exit status flips to 1 so the nightly job can diff
// the suppression inventory.
func TestNoignoreSurfacesSuppressions(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks several real packages; skipped in -short")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-noignore", "./internal/whatif"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("tempolint -noignore ./internal/whatif = exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "(suppressed: ") {
		t.Errorf("-noignore output does not annotate findings with their ignore reasons:\n%s", out)
	}
	if !strings.Contains(out, "[allocdiscipline]") {
		t.Errorf("-noignore output missing the known whatif allocdiscipline suppressions:\n%s", out)
	}
}

// TestTestOnlySilentOnPackageSubset checks that testonly reports only
// when the run covers the whole module. Over one package, every function
// another package calls would look test-only, so a subset run reports
// nothing from it and does not call the package's testonly ignores
// unused.
func TestTestOnlySilentOnPackageSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks real packages; skipped in -short")
	}
	for _, args := range [][]string{
		{"-analyzers", "testonly", "./internal/linalg"},
		{"./internal/sim"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 || stdout.Len() != 0 {
			t.Errorf("tempolint %v = exit %d, want 0 and no findings\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
		}
	}
}

func TestListPrintsAllAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("tempolint -list = exit %d, want 0", code)
	}
	for _, a := range All {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing analyzer %q:\n%s", a.Name, stdout.String())
		}
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "nope", "./internal/qs"}, &stdout, &stderr); code != 2 {
		t.Fatalf("tempolint -analyzers nope = exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr does not explain the unknown analyzer:\n%s", stderr.String())
	}
}
