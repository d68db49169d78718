package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Passiveobserver enforces the observability contract: an observer
// watches, it never steers. The serving loops log their decisions in
// their reports, so the passive hooks left are the telemetry adapters —
// a function with a *telemetry.Meter or *telemetry.Trace parameter must
// not assign into its other parameters (the report it renders; even a
// write into a by-value copy is a silent no-op bug) — and the live gauges:
// a function literal passed to Meter.SetFunc must not assign to any
// variable declared outside it (the loop state it samples mid-run).
var Passiveobserver = &analysis.Analyzer{
	Name: "passiveobserver",
	Doc: "telemetry adapters (functions with a *telemetry.Meter or *telemetry.Trace parameter) " +
		"must not assign into observed parameters, and Meter.SetFunc closures must not assign " +
		"to variables declared outside them: observation is strictly passive",
	Run: runPassiveobserver,
}

// telemetryType reports whether t is *telemetry.<name> for one of names.
func telemetryType(t types.Type, names ...string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	if path != "telemetry" && !strings.HasSuffix(path, "/telemetry") {
		return false
	}
	for _, n := range names {
		if named.Obj().Name() == n {
			return true
		}
	}
	return false
}

func runPassiveobserver(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkAdapter(pass, n.Name.Name, n.Type, n.Body)
				}
			case *ast.FuncLit:
				checkAdapter(pass, "func literal", n.Type, n.Body)
			case *ast.CallExpr:
				if isSetFunc(pass, n) {
					for _, arg := range n.Args {
						if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							checkGauge(pass, lit)
						}
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// isSetFunc reports whether call is a call of the Meter.SetFunc method.
func isSetFunc(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "SetFunc" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && telemetryType(recv.Type(), "Meter")
}

// checkAdapter flags, in a function with a *telemetry.Meter or
// *telemetry.Trace parameter, assignments rooted at one of its other
// parameters: rep.Field = x, rep.Jobs[i] = x, *p = x.
func checkAdapter(pass *analysis.Pass, name string, ft *ast.FuncType, body *ast.BlockStmt) {
	observed := map[types.Object]bool{}
	sink := false
	for _, field := range ft.Params.List {
		isSink := telemetryType(pass.TypesInfo.TypeOf(field.Type), "Meter", "Trace")
		sink = sink || isSink
		for _, id := range field.Names {
			if obj := pass.TypesInfo.Defs[id]; obj != nil && !isSink {
				observed[obj] = true
			}
		}
	}
	if !sink || len(observed) == 0 {
		return
	}
	forEachWrite(body, func(lhs ast.Expr) {
		if root, through := writeRoot(lhs); root != nil && through && observed[pass.TypesInfo.Uses[root]] {
			pass.Reportf(lhs.Pos(),
				"%s feeds telemetry and must be passive: assignment into observed parameter %s",
				name, root.Name)
		}
	})
}

// checkGauge flags assignments in a Meter.SetFunc closure to a variable
// declared outside the closure: queue = nil, slots[s].mb = nil, n++.
func checkGauge(pass *analysis.Pass, lit *ast.FuncLit) {
	forEachWrite(lit.Body, func(lhs ast.Expr) {
		root, _ := writeRoot(lhs)
		if root == nil {
			return
		}
		v, ok := pass.TypesInfo.Uses[root].(*types.Var)
		if !ok || v.IsField() || (v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			return
		}
		pass.Reportf(lhs.Pos(),
			"Meter.SetFunc gauge must be passive: assignment to %s, declared outside the closure", root.Name)
	})
}

// forEachWrite calls fn with every assignment and increment target in body.
func forEachWrite(body *ast.BlockStmt, fn func(lhs ast.Expr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				fn(lhs)
			}
		case *ast.IncDecStmt:
			fn(n.X)
		}
		return true
	})
}

// writeRoot returns the identifier at the root of a write target, and
// whether the write reaches through it (a field, element or pointee)
// rather than rebinding the identifier itself. A bare reassignment of a
// parameter (jr = normalize(jr)) only rebinds the local copy; a bare
// reassignment of a captured variable changes the caller's state.
func writeRoot(lhs ast.Expr) (root *ast.Ident, through bool) {
	for {
		switch e := lhs.(type) {
		case *ast.SelectorExpr:
			through, lhs = true, e.X
		case *ast.IndexExpr:
			through, lhs = true, e.X
		case *ast.StarExpr:
			through, lhs = true, e.X
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.Ident:
			return e, through
		default:
			return nil, false
		}
	}
}
