// Package testonly reports every function or method declared in a
// non-test file of an internal package that no non-test file of the
// module references: code only tests call, which belongs in a _test.go
// file. References from the declaration's own body do not count; those
// from command and bench packages do. It skips init and main packages,
// methods that satisfy an interface (String, Error, ServeHTTP, Unwrap
// are called through one), exported methods of a type a package outside
// internal/ re-exports by alias (the root package's public API), and
// packages only tests import, such as analysistest.
//
// It reports only over the whole module: over a subset, every function
// called from outside it would look unused. A hook that a test in
// another package needs keeps "//tempolint:ignore testonly <test name>".
package testonly

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tempo/internal/analysis"
)

// Analyzer is the testonly analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "testonly",
	Doc:       "flag functions and methods of internal packages that no non-test code references",
	RunModule: run,
}

func run(passes []*analysis.Pass) error {
	used, imported, aliased := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, pass := range passes {
		for _, imp := range pass.Pkg.Imports() {
			imported[imp.Path()] = true
		}
		collectUses(pass, used)
		if !isInternal(pass.Pkg.Path()) && pass.Pkg.Name() != "main" {
			for _, name := range pass.Pkg.Scope().Names() {
				if tn, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && tn.IsAlias() {
					if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
						aliased[typeKey(n)] = true
					}
				}
			}
		}
	}
	ifaces := interfaces(passes)

	for _, pass := range passes {
		if !isInternal(pass.Pkg.Path()) || !imported[pass.Pkg.Path()] {
			continue
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || fd.Recv == nil && fd.Name.Name == "init" {
					continue
				}
				fn := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if used[key(fn)] {
					continue
				}
				what := "func " + fn.Name()
				if recv := recvNamed(fn); recv != nil {
					if fn.Exported() && aliased[typeKey(recv)] || satisfies(recv, ifaces[fn.Name()]) {
						continue
					}
					what = "method " + recv.Obj().Name() + "." + fn.Name()
				}
				pass.Reportf(fd.Name.Pos(), "%s is referenced only by tests: delete it, or move it into a _test.go file", what)
			}
		}
	}
	return nil
}

func isInternal(path string) bool { return strings.Contains("/"+path+"/", "/internal/") }

// key names a function across type-checker instances (each package is
// checked as a target and again, bodiless, as a dependency).
func key(fn *types.Func) string { return fn.Origin().FullName() }

func typeKey(n *types.Named) string { return types.TypeString(n.Origin(), nil) }

// recvNamed returns a declared method's receiver type, T for T and *T,
// or nil for a function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := types.Unalias(recv.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	return t.(*types.Named)
}

// collectUses records every function referenced from a file of pass,
// except a declaration's references to itself.
func collectUses(pass *analysis.Pass, used map[string]bool) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			self := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					self = key(fn)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && key(fn) != self {
						used[key(fn)] = true
					}
				}
				return true
			})
		}
	}
}

// interfaces indexes by method name every interface a method could be
// called through: error and the errors package's protocol (asserted in
// bodies the loader skips), the named interfaces of every imported
// package, and every interface type written in the module.
func interfaces(passes []*analysis.Pass) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[types.Type]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			out[it.Method(i).Name()] = append(out[it.Method(i).Name()], it)
		}
	}
	for _, src := range []string{"error", "interface{ Unwrap() error }", "interface{ Unwrap() []error }", "interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, src)
		if err != nil {
			panic(err)
		}
		add(tv.Type)
	}
	visited := map[string]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if visited[pkg.Path()] {
			return
		}
		visited[pkg.Path()] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pass := range passes {
		visit(pass.Pkg)
		for _, tv := range pass.TypesInfo.Types {
			add(tv.Type)
		}
	}
	return out
}

// satisfies reports whether *recv has every method of one of
// candidates. Names are compared, not signatures: recv and an interface
// may come from different type-checker instances of one package, and a
// same-named method of another signature is rare enough to let pass.
func satisfies(recv *types.Named, candidates []*types.Interface) bool {
	mset := types.NewMethodSet(types.NewPointer(recv))
next:
	for _, it := range candidates {
		for i := 0; i < it.NumMethods(); i++ {
			if mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()) == nil {
				continue next
			}
		}
		return true
	}
	return false
}
