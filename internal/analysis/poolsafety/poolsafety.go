// Package poolsafety flags violations of the repo's ownership contracts
// for borrowed schedule records and pooled values, which only runtime
// sweeps (the pooled-determinism goldens, the scratch-pool race hammer)
// would otherwise catch:
//
//   - escape without Detach: a *Schedule returned by (*cluster.Sim).
//     RunInto borrows the Sim's record arrays, valid only until the Sim's
//     next run. Returning it, storing it into a field, map, or
//     package variable, or sending it on a channel is flagged unless
//     Detach was called on that Sim first (transferring ownership).
//   - use after Put: any value used after being handed back to a
//     sync.Pool via Put — the pool may already have given it to another
//     goroutine.
//
// The analysis is function-local and ordered by source position: a
// Detach (or re-Get) textually before the escape (or use) clears it,
// which matches every legitimate pattern in the tree.
package poolsafety

import (
	"go/ast"
	"go/token"
	"go/types"

	"tempo/internal/analysis"
)

// Analyzer is the poolsafety analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "poolsafety",
	Doc:  "flag borrowed schedules escaping without Detach and sync.Pool values used after Put",
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

// borrowed tracks one variable bound to a RunInto result.
type borrowed struct {
	obj  types.Object // the schedule variable
	sim  types.Object // the Sim it borrows from (nil if receiver isn't a plain ident)
	call *ast.CallExpr
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// Pass 1: collect RunInto bindings, Detach positions per Sim, and
	// Put positions per pooled object.
	var borrows []*borrowed
	detachPos := map[types.Object][]ast.Node{} // sim object -> Detach calls
	type putRecord struct {
		obj  types.Object
		call *ast.CallExpr
	}
	var puts []putRecord
	// A deferred Put runs at function (or goroutine-closure) exit, after
	// every use in the body; it can never be a use-after-Put source.
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(fd, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				recv, ok := analysis.IsMethodCall(info, call, "Sim", "RunInto")
				if !ok {
					continue
				}
				// Multi-value: sched, err := sm.RunInto(...). The
				// schedule is the first LHS.
				var lhs ast.Expr
				if len(n.Rhs) == 1 && len(n.Lhs) >= 1 {
					lhs = n.Lhs[0]
				} else if i < len(n.Lhs) {
					lhs = n.Lhs[i]
				}
				if lhs == nil {
					continue
				}
				if obj := analysis.ObjectOf(info, lhs); obj != nil {
					borrows = append(borrows, &borrowed{obj: obj, sim: analysis.ObjectOf(info, recv), call: call})
				}
			}
		case *ast.CallExpr:
			if recv, ok := analysis.IsMethodCall(info, n, "Sim", "Detach"); ok {
				if simObj := analysis.ObjectOf(info, recv); simObj != nil {
					detachPos[simObj] = append(detachPos[simObj], n)
				}
			}
			if recv, ok := analysis.IsMethodCall(info, n, "Pool", "Put"); ok {
				if deferred[n] || !isSyncPool(info, recv) {
					return true
				}
				if len(n.Args) == 1 {
					if obj := analysis.ObjectOf(info, n.Args[0]); obj != nil {
						puts = append(puts, putRecord{obj: obj, call: n})
					}
				}
			}
		}
		return true
	})

	if len(borrows) > 0 {
		checkEscapes(pass, fd, borrows, detachPos)
	}
	for _, p := range puts {
		checkUseAfterPut(pass, fd, p.obj, p.call)
	}
}

func isSyncPool(info *types.Info, recv ast.Expr) bool {
	tv, ok := info.Types[recv]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Pool" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync"
}

// detachedBefore reports whether Detach was called on b's Sim at a
// position before pos. A borrow whose receiver was not a plain
// identifier (for example sm.inner.RunInto) is treated as never
// detached — conservative, and not a pattern the tree uses.
func detachedBefore(b *borrowed, detachPos map[types.Object][]ast.Node, pos ast.Node) bool {
	if b.sim == nil {
		return false
	}
	for _, d := range detachPos[b.sim] {
		if d.Pos() > b.call.End() && d.Pos() < pos.Pos() {
			return true
		}
	}
	return false
}

func checkEscapes(pass *analysis.Pass, fd *ast.FuncDecl, borrows []*borrowed, detachPos map[types.Object][]ast.Node) {
	info := pass.TypesInfo
	find := func(e ast.Expr) *borrowed {
		obj := analysis.ObjectOf(info, e)
		if obj == nil {
			return nil
		}
		for _, b := range borrows {
			if b.obj == obj {
				return b
			}
		}
		return nil
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if b := find(res); b != nil && n.Pos() > b.call.Pos() && !detachedBefore(b, detachPos, n) {
					pass.Reportf(n.Pos(), "returning schedule %q borrowed from Sim %q without Detach: its backing arrays are recycled by the Sim's next RunInto", b.obj.Name(), simName(b))
				}
			}
		case *ast.SendStmt:
			if b := find(n.Value); b != nil && n.Pos() > b.call.Pos() && !detachedBefore(b, detachPos, n) {
				pass.Reportf(n.Pos(), "sending schedule %q borrowed from Sim %q without Detach: the receiver outlives the Sim's next RunInto", b.obj.Name(), simName(b))
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				b := find(rhs)
				if b == nil || len(n.Lhs) <= i {
					continue
				}
				if !escapingLHS(info, n.Lhs[min(i, len(n.Lhs)-1)]) {
					continue
				}
				if n.Pos() > b.call.Pos() && !detachedBefore(b, detachPos, n) {
					pass.Reportf(n.Pos(), "storing schedule %q borrowed from Sim %q without Detach: the store outlives the Sim's next RunInto", b.obj.Name(), simName(b))
				}
			}
		}
		return true
	})
}

// escapingLHS reports whether assigning to lhs publishes the value
// beyond the local frame: a struct field, a map or slice element, a
// dereference, or a package-level variable.
func escapingLHS(info *types.Info, lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		obj := info.Uses[l]
		if obj == nil {
			obj = info.Defs[l]
		}
		if v, ok := obj.(*types.Var); ok {
			// Package-level variable: its scope is the package scope.
			return v.Parent() == v.Pkg().Scope()
		}
	}
	return false
}

func simName(b *borrowed) string {
	if b.sim != nil {
		return b.sim.Name()
	}
	return "?"
}

// checkUseAfterPut flags identifier uses of obj positioned after the
// Put call, unless the variable is rebound first (x = pool.Get()
// again). When the Put sits inside a loop, only uses after the loop are
// flagged — a textually later use inside the loop body may belong to an
// earlier iteration... but a textually earlier use in the next
// iteration is exactly as unsafe, so the rebinding rule still applies:
// a loop that Puts and keeps using the value without re-Getting it is
// flagged at the loop's first use site.
func checkUseAfterPut(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object, put *ast.CallExpr) {
	info := pass.TypesInfo
	// A rebinding kills the taint from its position on.
	rebound := token.Pos(1 << 40)
	ast.Inspect(fd, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Pos() > put.End() && as.Pos() < rebound {
			for _, lhs := range as.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if info.Uses[id] == obj || info.Defs[id] == obj {
						rebound = as.Pos()
					}
				}
			}
		}
		return true
	})
	after := put.End()
	if loop := enclosingLoop(fd, put); loop != nil {
		// Within the loop body, whether the Put's iteration or the
		// use's came first is undecidable function-locally; flag only
		// uses after the loop unless the loop never rebinds. A loop
		// that rebinds (the Get-use-Put cycle) is the sanctioned
		// pattern.
		if rebound <= loop.End() {
			after = loop.End()
		}
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != obj {
			return true
		}
		if id.Pos() > after && id.Pos() < rebound {
			pass.Reportf(id.Pos(), "use of %q after it was returned to the pool by Put at line %d: the pool may already have handed it to another goroutine", obj.Name(), pass.Fset.Position(put.Pos()).Line)
		}
		return true
	})
}

// enclosingLoop returns the innermost for/range statement containing n,
// or nil.
func enclosingLoop(fd *ast.FuncDecl, n ast.Node) ast.Node {
	var best ast.Node
	ast.Inspect(fd, func(c ast.Node) bool {
		switch c.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if c.Pos() <= n.Pos() && n.End() <= c.End() {
				best = c
			}
		}
		return true
	})
	return best
}
