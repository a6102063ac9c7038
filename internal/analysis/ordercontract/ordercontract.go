// Package ordercontract enforces the documented contract of the
// canonical schedule event stream: Schedule.Events()/AppendEvents()
// return events in the total order (Time, Kind, Seq), and window
// consumers treat [From, To) as half-open. The query layer's "events"
// relation assumes every consumer preserves that order — a consumer that
// re-sorts by another key or appends concurrently produces rows in a
// different order from run to run. (The WAL encodes a schedule's
// records, not this stream, so durable state does not depend on it.)
//
// It reports, in any package:
//
//   - re-sorting an event stream obtained from Events/AppendEvents
//     (sort.Slice, slices.SortFunc, ...): the stream is already in
//     canonical order; sorting by a different key silently breaks the
//     total order, and by the same key is a no-op;
//   - appends or element writes to the stream from inside a goroutine
//     (go statement): concurrent unmerged appends interleave
//     nondeterministically; merge per-goroutine slices instead;
//   - half-open boundary misuse on Event.Time comparisons against
//     from/to window bounds: inclusion is Time >= from && Time < to,
//     so `Time <= to` (or `to >= Time`) double-counts the boundary
//     event in adjacent windows and `Time > from` drops it.
package ordercontract

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tempo/internal/analysis"
)

// Analyzer is the ordercontract analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ordercontract",
	Doc:  "flag event-stream consumers that re-sort, concurrently append, or misuse the half-open [From,To) window",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// Streams: variables bound to Events()/AppendEvents() results.
	streams := map[types.Object]bool{}
	ast.Inspect(fd, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isEventsCall(info, call) {
				continue
			}
			var lhs ast.Expr
			if len(as.Rhs) == 1 && len(as.Lhs) >= 1 {
				lhs = as.Lhs[0]
			} else if i < len(as.Lhs) {
				lhs = as.Lhs[i]
			}
			if lhs == nil {
				continue
			}
			if obj := analysis.ObjectOf(info, lhs); obj != nil {
				streams[obj] = true
			}
		}
		return true
	})

	mentionsStream := func(e ast.Expr) bool {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && isEventsCall(info, call) {
			return true
		}
		obj := analysis.ObjectOf(info, e)
		return obj != nil && streams[obj]
	}

	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if f := analysis.CalleeFunc(info, n); f != nil && f.Pkg() != nil && isSortFunc(f) {
				for _, arg := range n.Args {
					if mentionsStream(arg) {
						pass.Reportf(n.Pos(), "re-sorting a canonical event stream: Events() is already totally ordered by (Time, Kind, Seq); sorting by another key breaks the order contract, by the same key is a wasted O(n log n)")
					}
				}
			}
		case *ast.GoStmt:
			checkConcurrentAppend(pass, fd, n, streams)
		case *ast.BinaryExpr:
			checkBoundary(pass, n)
		}
		return true
	})
}

func isEventsCall(info *types.Info, call *ast.CallExpr) bool {
	if _, ok := analysis.IsMethodCall(info, call, "Schedule", "Events"); ok {
		return true
	}
	_, ok := analysis.IsMethodCall(info, call, "Schedule", "AppendEvents")
	return ok
}

func isSortFunc(f *types.Func) bool {
	pkg := f.Pkg().Path()
	name := f.Name()
	switch pkg {
	case "sort":
		return name == "Sort" || name == "Stable" || strings.HasPrefix(name, "Slice")
	case "slices":
		return strings.HasPrefix(name, "Sort")
	}
	return false
}

// checkConcurrentAppend flags appends/writes to a stream variable from
// inside a go statement when the variable is declared outside it.
func checkConcurrentAppend(pass *analysis.Pass, fd *ast.FuncDecl, g *ast.GoStmt, streams map[types.Object]bool) {
	info := pass.TypesInfo
	ast.Inspect(g.Call, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			obj := analysis.ObjectOf(info, lhs)
			if obj == nil || !streams[obj] {
				// Also catch ev[i] = ... element writes.
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if o := analysis.ObjectOf(info, ix.X); o != nil && streams[o] && (o.Pos() < g.Pos() || o.Pos() > g.End()) {
						pass.Reportf(as.Pos(), "write into canonical event stream %q from a goroutine: concurrent unmerged writes reorder the stream nondeterministically", o.Name())
					}
				}
				continue
			}
			// Declared outside the goroutine?
			if obj.Pos() >= g.Pos() && obj.Pos() <= g.End() {
				continue
			}
			if i < len(as.Rhs) {
				if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok && analysis.IsBuiltinAppend(info, call) {
					pass.Reportf(as.Pos(), "concurrent append to canonical event stream %q from a goroutine: interleaving is nondeterministic and unsynchronized; collect per-goroutine slices and merge in (Time, Kind, Seq) order", obj.Name())
					continue
				}
			}
			pass.Reportf(as.Pos(), "write to canonical event stream %q from a goroutine: the stream's total order is not goroutine-safe to mutate", obj.Name())
		}
		return true
	})
}

// checkBoundary flags Event.Time comparisons that violate the
// half-open [From, To) convention, matching bound operands by name
// (from/to, case-insensitive, any qualifier).
func checkBoundary(pass *analysis.Pass, b *ast.BinaryExpr) {
	timeExpr := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Time" {
			return false
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		return ok && analysis.NamedTypeName(tv.Type) == "Event"
	}
	boundName := func(e ast.Expr) string {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return strings.ToLower(x.Name)
		case *ast.SelectorExpr:
			return strings.ToLower(x.Sel.Name)
		}
		return ""
	}
	// Canonicalize to (Time op bound).
	var op token.Token
	var bound string
	switch {
	case timeExpr(b.X):
		op, bound = b.Op, boundName(b.Y)
	case timeExpr(b.Y):
		bound = boundName(b.X)
		switch b.Op {
		case token.LSS:
			op = token.GTR
		case token.GTR:
			op = token.LSS
		case token.LEQ:
			op = token.GEQ
		case token.GEQ:
			op = token.LEQ
		default:
			return
		}
	default:
		return
	}
	switch {
	case op == token.LEQ && bound == "to":
		pass.Reportf(b.Pos(), "Event.Time <= to violates the half-open [From,To) window: the boundary event would land in two adjacent windows; use <")
	case op == token.GTR && bound == "from":
		pass.Reportf(b.Pos(), "Event.Time > from violates the half-open [From,To) window: the boundary event would be dropped; use >=")
	}
}
