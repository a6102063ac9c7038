package analysis

import (
	"fmt"
	"slices"
	"sort"

	"tempo/internal/analysis/load"
)

// Options configure a Run.
type Options struct {
	// ReportUnusedIgnores adds a "tempolint" diagnostic for every ignore
	// comment that suppressed nothing. Only meaningful when the full
	// analyzer suite runs (a subset run would see other analyzers'
	// ignores as unused).
	ReportUnusedIgnores bool
}

// unit is one loaded package with its diagnostics and ignores.
type unit struct {
	pkg     *load.Package
	diags   []Diagnostic
	ignores []*Ignore
}

func (u *unit) pass(l *load.Loader, az *Analyzer) *Pass {
	return &Pass{Analyzer: az, Fset: l.Fset, Files: u.pkg.Files, Pkg: u.pkg.Types, TypesInfo: u.pkg.Info, diags: &u.diags}
}

// Run loads each package path and applies every analyzer, returning all
// diagnostics (suppressed ones included, marked) sorted by position.
// Analyzers with a RunModule hook see every package at once, and only
// when paths cover the whole module; otherwise their ignores are not
// called unused.
func Run(l *load.Loader, paths []string, analyzers []*Analyzer, opts Options) ([]Diagnostic, error) {
	whole, err := coversModule(l, paths)
	if err != nil {
		return nil, err
	}
	units := make([]*unit, len(paths))
	for i, path := range paths {
		pkg, err := l.LoadPackage(path)
		if err != nil {
			return nil, err
		}
		u := &unit{pkg: pkg}
		units[i] = u
		u.ignores = collectIgnores(u.pass(l, nil)) // per package, not per analyzer
		for _, az := range analyzers {
			if az.Run == nil {
				continue
			}
			if err := az.Run(u.pass(l, az)); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", az.Name, path, err)
			}
		}
	}
	skipped := map[string]bool{}
	for _, az := range analyzers {
		if az.RunModule == nil {
			continue
		}
		if !whole {
			skipped[az.Name] = true
			continue
		}
		passes := make([]*Pass, len(units))
		for i, u := range units {
			passes[i] = u.pass(l, az)
		}
		if err := az.RunModule(passes); err != nil {
			return nil, fmt.Errorf("%s: %w", az.Name, err)
		}
	}
	var all []Diagnostic
	for _, u := range units {
		suppress(u.diags, u.ignores)
		all = append(all, u.diags...)
		for _, ig := range u.ignores {
			if opts.ReportUnusedIgnores && !ig.used && !skipped[ig.Analyzer] {
				all = append(all, Diagnostic{
					Pos:      ig.Pos,
					Analyzer: "tempolint",
					Message:  fmt.Sprintf("unused tempolint:ignore for %q: nothing is reported here; delete the comment", ig.Analyzer),
				})
			}
		}
	}
	all = dedup(all)
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all, nil
}

// dedup drops exact repeats (same position, analyzer, and message) —
// nested constructs can legitimately trip the same rule twice.
func dedup(diags []Diagnostic) []Diagnostic {
	type key struct {
		file          string
		line, col     int
		analyzer, msg string
	}
	seen := map[key]bool{}
	out := diags[:0]
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message}
		if !seen[k] {
			seen[k] = true
			out = append(out, d)
		}
	}
	return out
}

// coversModule reports whether paths name every package of l's module,
// which is when an analysis that looks for missing references is sound.
// A fixture loader has no module: the packages it is given are the
// whole program.
func coversModule(l *load.Loader, paths []string) (bool, error) {
	if l.ModRoot == "" {
		return true, nil
	}
	module, err := l.Expand([]string{"./..."})
	if err != nil {
		return false, err
	}
	for _, p := range module {
		if !slices.Contains(paths, p) {
			return false, nil
		}
	}
	return true, nil
}
