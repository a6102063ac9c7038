// Command tempolint statically enforces the repo's determinism,
// pool-safety, allocation, and event-order invariants — the properties
// the golden suite, the pooled-determinism sweep, and the benchmark
// gates otherwise only verify at runtime — and keeps internal packages
// free of code only tests call. It is a multichecker over the five
// analyzers in internal/analysis/...; see each package's doc for the
// invariant it encodes.
//
// Usage:
//
//	tempolint [flags] [packages]
//
//	-analyzers list   comma-separated subset to run (default: all)
//	-noignore         report findings even where a tempolint:ignore
//	                  matches (nightly drift mode); suppressed findings
//	                  are annotated with their recorded reason
//	-list             print the analyzers and exit
//
// Packages default to ./... resolved against the enclosing module;
// testonly reports only when they cover all of it.
// Exit status is 1 when any unsuppressed finding (or, with -noignore,
// any finding at all) is reported, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tempo/internal/analysis"
	"tempo/internal/analysis/allocdiscipline"
	"tempo/internal/analysis/determinism"
	"tempo/internal/analysis/load"
	"tempo/internal/analysis/ordercontract"
	"tempo/internal/analysis/poolsafety"
	"tempo/internal/analysis/testonly"
)

// All is the full tempolint suite, in reporting order.
var All = []*analysis.Analyzer{
	determinism.Analyzer,
	poolsafety.Analyzer,
	allocdiscipline.Analyzer,
	ordercontract.Analyzer,
	testonly.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tempolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		noignore = fs.Bool("noignore", false, "report findings even where a tempolint:ignore matches")
		names    = fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		list     = fs.Bool("list", false, "print the analyzers and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range All {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	suite := All
	if *names != "" {
		suite = nil
		for _, n := range strings.Split(*names, ",") {
			n = strings.TrimSpace(n)
			found := false
			for _, a := range All {
				if a.Name == n {
					suite = append(suite, a)
					found = true
				}
			}
			if !found {
				fmt.Fprintf(stderr, "tempolint: unknown analyzer %q\n", n)
				return 2
			}
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := load.New("")
	if err != nil {
		fmt.Fprintf(stderr, "tempolint: %v\n", err)
		return 2
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "tempolint: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(loader, paths, suite, analysis.Options{
		// Unused-ignore hygiene only makes sense when every analyzer an
		// ignore could name actually ran.
		ReportUnusedIgnores: len(suite) == len(All),
	})
	if err != nil {
		fmt.Fprintf(stderr, "tempolint: %v\n", err)
		return 2
	}

	wd, _ := os.Getwd()
	failures := 0
	for _, d := range diags {
		if d.Suppressed && !*noignore {
			continue
		}
		failures++
		pos := d.Pos
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		if d.Suppressed {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s (suppressed: %s)\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message, d.Reason)
		} else {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "tempolint: %d finding(s)\n", failures)
		return 1
	}
	return 0
}
