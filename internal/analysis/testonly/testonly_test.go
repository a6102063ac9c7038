package testonly_test

import (
	"testing"

	"tempo/internal/analysis"
	"tempo/internal/analysis/analysistest"
	"tempo/internal/analysis/testonly"
)

func TestTestOnly(t *testing.T) {
	suite := []*analysis.Analyzer{testonly.Analyzer}
	diags := analysistest.Run(t, "testdata", suite, "fix", "fix/cmd/app", "fix/internal/lib", "fix/internal/testhelp", "fix/internal/tool")
	if len(diags) == 0 {
		t.Fatalf("fixture produced no diagnostics; the positive cases are not being checked")
	}
}
