// Package allocdiscipline guards the allocation budget of functions
// annotated "//tempo:hot" — the what-if inner loop paths whose
// allocations TestSimSteadyStateAllocs and BenchmarkWhatIfBatch's
// ceiling hold down. Those gates catch a regression after the fact and
// only on the paths they drive; this analyzer points at the line that
// caused it.
//
// Inside a hot function (closures included) it reports:
//
//   - pop-front reslicing (s = s[1:]): each pop keeps the backing array
//     live and grows it on the next append; use a head index over a
//     reusable buffer (see the scheduler's pending-task deque);
//   - fmt.Sprintf / Sprint / Sprintln / Errorf / Appendf: formatting
//     allocates; hot paths preformat or use strconv into a scratch
//     buffer;
//   - sort.Slice / sort.SliceStable: every call boxes the slice into an
//     interface, builds a reflection swapper and escapes its less
//     closure; slices.SortFunc sorts the typed slice in place;
//   - boxing: passing a non-pointer-shaped value (int, struct, string,
//     slice, ...) where an interface is expected heap-allocates the
//     box. Pointers, maps, channels, and funcs fit the interface word
//     directly; pass those, or keep the value out of interfaces.
package allocdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"tempo/internal/analysis"
)

// Analyzer is the allocdiscipline analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "allocdiscipline",
	Doc:  "flag allocation churn (pop-front reslice, fmt, sort.Slice, boxing) in //tempo:hot functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !analysis.FuncIsHot(fd) {
				continue
			}
			checkHot(pass, fd)
		}
	}
	return nil
}

func checkHot(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkPopFront(pass, n)
		case *ast.CallExpr:
			if checkFmt(pass, n) || checkSort(pass, n) {
				// Don't also flag the call's arguments as boxing;
				// one diagnostic per sin.
				return true
			}
			checkBoxing(pass, info, n)
		}
		return true
	})
}

// checkPopFront flags s = s[i:] (i != 0): the idiomatic queue pop that
// leaks the consumed prefix and forces append to reallocate.
func checkPopFront(pass *analysis.Pass, as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		sl, ok := ast.Unparen(as.Rhs[i]).(*ast.SliceExpr)
		if !ok || sl.Low == nil || sl.High != nil || sl.Slice3 {
			continue
		}
		lobj := analysis.ObjectOf(pass.TypesInfo, lhs)
		robj := analysis.ObjectOf(pass.TypesInfo, sl.X)
		if lobj == nil || lobj != robj {
			continue
		}
		if lit, ok := ast.Unparen(sl.Low).(*ast.BasicLit); ok && lit.Value == "0" {
			continue
		}
		pass.Reportf(as.Pos(), "pop-front reslice %q = %q[...:] in hot path: the consumed prefix stays live and append reallocates; use a head index into a reusable buffer", lobj.Name(), lobj.Name())
	}
}

func checkFmt(pass *analysis.Pass, call *ast.CallExpr) bool {
	f := analysis.CalleeFunc(pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "fmt" {
		return false
	}
	switch f.Name() {
	case "Sprintf", "Sprint", "Sprintln", "Errorf", "Appendf", "Append", "Appendln":
		pass.Reportf(call.Pos(), "fmt.%s in hot path: formatting allocates its result and boxes every operand; preformat outside the loop or use strconv into a scratch buffer", f.Name())
		return true
	}
	return false
}

func checkSort(pass *analysis.Pass, call *ast.CallExpr) bool {
	f := analysis.CalleeFunc(pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sort" {
		return false
	}
	switch f.Name() {
	case "Slice", "SliceStable":
		pass.Reportf(call.Pos(), "sort.%s in hot path: it boxes the slice, builds a reflection swapper and escapes its less closure on every call; use slices.SortFunc", f.Name())
		return true
	}
	return false
}

// checkBoxing flags arguments whose static type is value-shaped (not
// pointer, interface, map, chan, func, or slice) passed where the
// callee expects an interface: the conversion heap-allocates.
func checkBoxing(pass *analysis.Pass, info *types.Info, call *ast.CallExpr) {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		// Conversions are not calls; T(x) boxing is covered by the
		// interface-parameter rule at the converted value's use site.
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at) || at == types.Typ[types.UntypedNil] {
			continue
		}
		if isPointerShaped(at) {
			continue
		}
		pass.Reportf(arg.Pos(), "value of type %s boxed into %s in hot path: the conversion heap-allocates; pass a pointer or keep the value out of interfaces", at.String(), pt.String())
	}
}

// isPointerShaped reports whether converting a value of type t to an
// interface stores the value directly in the interface word instead of
// heap-allocating a box: true only for pointer, map, channel, func, and
// unsafe.Pointer types. Strings and slices are multi-word headers and
// do allocate.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
