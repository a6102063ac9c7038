// Package analysis is tempolint's analyzer framework: a deliberately
// small, dependency-free re-statement of the golang.org/x/tools
// go/analysis contract (Analyzer, Pass, Diagnostic) plus the repo's
// suppression convention. Four analyzers under this directory encode
// invariants the test suite otherwise only checks at runtime —
// golden-report determinism, borrowed-schedule ownership, hot-path
// allocation discipline, and the canonical event-stream order — so a
// violation is caught when the code is linted, not after a golden has
// already diverged. The fifth, testonly, keeps product packages free of
// code that only tests call.
//
// Suppression convention: a finding is silenced by a comment
//
//	//tempolint:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line directly above it. The
// reason is mandatory; an ignore without one, or one that silences
// nothing, is itself reported. Nightly CI runs with suppressions
// disabled so the ignored sites stay visible.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// tempolint:ignore comments.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run applies the analyzer to one package. It may be nil.
	Run func(*Pass) error
	// RunModule, when set, runs once with one Pass per package, and only
	// when the run covers the whole module: what no package references
	// cannot be told from a subset.
	RunModule func([]*Pass) error
}

// A Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed records that a tempolint:ignore matched; Reason is the
	// ignore comment's justification.
	Suppressed bool
	Reason     string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// --- shared type/AST helpers used by the analyzers ---

// NamedTypeName returns the object name of t after stripping pointers
// and aliases ("Schedule" for *cluster.Schedule), or "".
func NamedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	if a, ok := t.(*types.Alias); ok {
		return a.Obj().Name()
	}
	return ""
}

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (method or package-level function), or nil for builtins, conversions,
// and calls of function-typed values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call: pkg.F.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// IsMethodCall reports whether call invokes a method with the given
// name on a receiver whose (pointer-stripped) named type is recvType;
// empty recvType matches any receiver. It returns the receiver
// expression when it matches.
func IsMethodCall(info *types.Info, call *ast.CallExpr, recvType, name string) (recv ast.Expr, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != name {
		return nil, false
	}
	s, isMethod := info.Selections[sel]
	if !isMethod || s.Kind() != types.MethodVal {
		return nil, false
	}
	if recvType != "" && NamedTypeName(s.Recv()) != recvType {
		return nil, false
	}
	return sel.X, true
}

// IsBuiltinAppend reports whether call invokes the predeclared append
// (not a user function shadowing the name).
func IsBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// ObjectOf returns the object an identifier expression denotes, looking
// through parentheses, or nil when the expression is not a plain
// identifier.
func ObjectOf(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// UsesObject reports whether node mentions obj anywhere beneath it.
func UsesObject(info *types.Info, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// FileHasDirective reports whether the file carries a
// "//tempolint:<name>" comment (anywhere; by convention it sits above
// the package clause).
func FileHasDirective(f *ast.File, name string) bool {
	want := "//tempolint:" + name
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if text == want || strings.HasPrefix(text, want+" ") {
				return true
			}
		}
	}
	return false
}

// FuncIsHot reports whether the function declaration is annotated with
// a "//tempo:hot" directive in (or directly above) its doc comment.
func FuncIsHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), "//tempo:hot") {
			return true
		}
	}
	return false
}
