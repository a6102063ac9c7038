// Package determinism flags constructs that make output depend on Go
// runtime scheduling or map-iteration order inside the packages whose
// byte-identical output the golden suite locks.
//
// Scope: the deterministic packages (internal/cluster, sim, qs,
// scenario, whatif, workload) plus any file carrying a
// "//tempolint:deterministic" directive (how tick-path files of
// internal/service opt in without dragging the HTTP layer along).
//
// Within scope it reports:
//
//   - range over a map whose body is order-sensitive: appends to an
//     outer slice (unless that slice is sorted after the loop),
//     accumulates floats (float addition is not associative), sends on
//     a channel, writes formatted output, schedules simulator events,
//     or exits the loop early (break/return selects a map-order-
//     dependent element);
//   - time.Now — deterministic code runs on virtual time;
//   - the global math/rand source (rand.Intn, rand.Float64, ...) —
//     all randomness must flow from an explicitly seeded *rand.Rand;
//   - select with two or more communication cases: when several are
//     ready the runtime picks uniformly at random.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tempo/internal/analysis"
)

// Analyzer is the determinism analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "flag map-order, wall-clock, global-rand, and select nondeterminism in deterministic packages",
	Run:  run,
}

// DeterministicPkgs are the module packages whose whole output is
// golden-locked. Matched against the package import path.
// internal/store is in scope because recovery correctness hangs on its
// bytes: the WAL codec must invert exactly and snapshots must replay to
// the same trajectory, so map-order or wall-clock leaks there corrupt
// recovered runs just as surely as in the simulator. (Group-commit
// pacing is wall-clock by design and carries an ignore.)
// internal/core joined the scope with the incremental candidate search:
// the controller now owns pruning decisions and decision-latency
// accounting, and its only sanctioned clock is the injected Config.Now —
// a literal time.Now there would silently desync replayed trajectories.
// internal/query joined with the ad-hoc query layer: its contract is
// that streamed deltas replay to the one-shot result bit for bit, which
// a bare map iteration over group cells would break per run.
var DeterministicPkgs = []string{
	"tempo/internal/cluster",
	"tempo/internal/core",
	"tempo/internal/sim",
	"tempo/internal/qs",
	"tempo/internal/query",
	"tempo/internal/scenario",
	"tempo/internal/whatif",
	"tempo/internal/workload",
	"tempo/internal/store",
}

func inScopePkg(path string) bool {
	for _, p := range DeterministicPkgs {
		if path == p {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	pkgScoped := inScopePkg(pass.Pkg.Path())
	for _, f := range pass.Files {
		if !pkgScoped && !analysis.FileHasDirective(f, "deterministic") {
			continue
		}
		checkFile(pass, f)
	}
	return nil
}

func checkFile(pass *analysis.Pass, f *ast.File) {
	// Collect enclosing-function bodies so the map-range check can look
	// for a sort after the loop.
	var funcStack []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				funcStack = append(funcStack, n)
				ast.Inspect(n.Body, visit)
				funcStack = funcStack[:len(funcStack)-1]
			}
			return false
		case *ast.FuncLit:
			funcStack = append(funcStack, n)
			ast.Inspect(n.Body, visit)
			funcStack = funcStack[:len(funcStack)-1]
			return false
		case *ast.RangeStmt:
			if isMapRange(pass, n) {
				var encl ast.Node
				if len(funcStack) > 0 {
					encl = funcStack[len(funcStack)-1]
				}
				checkMapRange(pass, n, encl)
			}
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.SelectStmt:
			checkSelect(pass, n)
		}
		return true
	}
	ast.Inspect(f, visit)
}

func isMapRange(pass *analysis.Pass, r *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[r.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// checkMapRange reports order-sensitive operations in a map-range body.
// inLoop/inFunc track nesting so a break belonging to an inner loop, or
// a return belonging to an inner closure, is not blamed on the range.
func checkMapRange(pass *analysis.Pass, r *ast.RangeStmt, encl ast.Node) {
	info := pass.TypesInfo
	var walk func(n ast.Node, inLoop, inFunc bool)
	walkAll := func(n ast.Node, inLoop, inFunc bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return true
			}
			walk(c, inLoop, inFunc)
			return false
		})
	}
	walk = func(n ast.Node, inLoop, inFunc bool) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if analysis.IsBuiltinAppend(info, n) {
				// append to an outer slice: iteration order becomes
				// element order — unless the result is sorted after the
				// loop (the collect-then-sort idiom).
				sorted := false
				if len(n.Args) > 0 {
					if obj := analysis.ObjectOf(info, n.Args[0]); obj != nil && sortedAfter(pass, encl, r, obj) {
						sorted = true
					}
				}
				if !sorted {
					pass.Reportf(n.Pos(), "append inside range over map: element order follows map iteration order; collect keys and sort, or sort the result after the loop")
				}
			} else if f := analysis.CalleeFunc(info, n); f != nil {
				name := f.Name()
				if name == "At" {
					pass.Reportf(n.Pos(), "scheduling simulator events inside range over map: event insertion order follows map iteration order")
				}
				if isOutputCall(f) {
					pass.Reportf(n.Pos(), "writing output inside range over map: output order follows map iteration order")
				}
			}
			walkAll(n, inLoop, inFunc)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside range over map: message order follows map iteration order")
			walkAll(n, inLoop, inFunc)
		case *ast.AssignStmt:
			if op := n.Tok; op == token.ADD_ASSIGN || op == token.SUB_ASSIGN || op == token.MUL_ASSIGN || op == token.QUO_ASSIGN {
				for _, lhs := range n.Lhs {
					if isFloat(info, lhs) && declaredOutside(info, lhs, r) {
						pass.Reportf(n.Pos(), "floating-point accumulation inside range over map: float addition is not associative, so the sum depends on map iteration order; accumulate over sorted keys")
					}
				}
			}
			walkAll(n, inLoop, inFunc)
		case *ast.BranchStmt:
			if n.Tok == token.BREAK && n.Label == nil && !inLoop {
				pass.Reportf(n.Pos(), "break inside range over map selects a map-order-dependent element; iterate sorted keys or restructure as a lookup")
			}
		case *ast.ReturnStmt:
			if !inFunc {
				pass.Reportf(n.Pos(), "return inside range over map selects a map-order-dependent element (first match wins); iterate sorted keys")
			}
			walkAll(n, inLoop, inFunc)
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// break now binds to this statement, not the map range.
			walkAll(n, true, inFunc)
		case *ast.FuncLit:
			// The closure body still runs (or captures state) in
			// iteration order, so its operations are checked, but its
			// returns and breaks are local to it.
			walkAll(n, true, true)
		default:
			walkAll(n, inLoop, inFunc)
		}
	}
	walkAll(r.Body, false, false)
}

// sortedAfter reports whether obj (a slice being appended to inside the
// loop) is passed to a sort call after the range statement within the
// enclosing function.
func sortedAfter(pass *analysis.Pass, encl ast.Node, r *ast.RangeStmt, obj types.Object) bool {
	if encl == nil {
		return false
	}
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < r.End() {
			return true
		}
		f := analysis.CalleeFunc(pass.TypesInfo, call)
		if f == nil || f.Pkg() == nil {
			return true
		}
		pkg := f.Pkg().Path()
		if (pkg == "sort" || pkg == "slices") && strings.HasPrefix(f.Name(), "Sort") ||
			pkg == "sort" && (f.Name() == "Slice" || f.Name() == "SliceStable" || f.Name() == "Strings" || f.Name() == "Ints" || f.Name() == "Float64s") {
			for _, arg := range call.Args {
				if analysis.UsesObject(pass.TypesInfo, arg, obj) {
					found = true
					break
				}
			}
		}
		return !found
	})
	return found
}

func isOutputCall(f *types.Func) bool {
	if f.Pkg() != nil && f.Pkg().Path() == "fmt" && strings.HasPrefix(f.Name(), "Fprint") {
		return true
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch f.Name() {
	case "WriteString", "WriteByte", "WriteRune", "Write":
		return true
	}
	return false
}

func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func declaredOutside(info *types.Info, e ast.Expr, r *ast.RangeStmt) bool {
	obj := analysis.ObjectOf(info, e)
	if obj == nil {
		// Field or index expression: the storage outlives the loop.
		return true
	}
	return obj.Pos() < r.Pos() || obj.Pos() > r.End()
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	f := analysis.CalleeFunc(pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	pkg := f.Pkg().Path()
	sig, _ := f.Type().(*types.Signature)
	isPkgFunc := sig != nil && sig.Recv() == nil
	switch {
	case pkg == "time" && f.Name() == "Now" && isPkgFunc:
		pass.Reportf(call.Pos(), "time.Now in deterministic code: simulation runs on virtual time; thread the engine clock instead")
	case (pkg == "math/rand" || pkg == "math/rand/v2") && isPkgFunc && f.Name() != "New" && f.Name() != "NewSource" && f.Name() != "NewPCG" && f.Name() != "NewChaCha8":
		pass.Reportf(call.Pos(), "global math/rand source in deterministic code: draw from an explicitly seeded *rand.Rand so runs replay")
	}
}

func checkSelect(pass *analysis.Pass, sel *ast.SelectStmt) {
	comms := 0
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			comms++
		}
	}
	if comms >= 2 {
		pass.Reportf(sel.Pos(), "select with %d communication cases in deterministic code: when several are ready the winner is chosen at random; give the cases a deterministic priority order", comms)
	}
}
