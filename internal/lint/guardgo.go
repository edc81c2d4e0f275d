package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// Guardgo requires a panic barrier on goroutines launched by the synthesis
// layers.
//
// The evaluation pipeline deliberately contains panics (runctl.Guard turns
// a panicking genome into an infeasible one and keeps the run alive), but
// that only works for code reached through the guard. A bare `go func`
// in synth/ga/bench that panics kills the whole process, losing the
// best-so-far result, the closing checkpoint and the fault report — the
// exact artefacts the resilience layer exists to protect. Every goroutine
// there must either be a runctl call or start with a defer'd recover
// barrier.
var Guardgo = &Analyzer{
	Name: "guardgo",
	Doc: "goroutines in the synthesis layers must be panic-isolated: " +
		"launched through internal/runctl or opening with a defer'd recover " +
		"barrier, so a panic cannot take down the run's best-so-far state",
	Packages: regexp.MustCompile(`(^|/)internal/(synth|ga|bench|obs|serve|fleet|cas|durable)($|/)`),
	Run:      runGuardgo,
}

func runGuardgo(pass *Pass) error {
	// Index this package's function declarations so `go worker(...)` can be
	// checked against worker's own body.
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj := pass.Info.Defs[fn.Name]; obj != nil {
					decls[obj] = fn
				}
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if goIsGuarded(pass, g, decls) {
				return true
			}
			pass.Reportf(g.Pos(),
				"goroutine is not panic-isolated: a panic here kills the run and its best-so-far state; launch through runctl or open the goroutine with a defer'd recover barrier")
			return true
		})
	}
	return nil
}

func goIsGuarded(pass *Pass, g *ast.GoStmt, decls map[types.Object]*ast.FuncDecl) bool {
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		return bodyHasRecoverBarrier(pass, fun.Body)
	case *ast.Ident:
		if fromRunctl(pass.Info.Uses[fun]) {
			return true
		}
		if decl, ok := decls[pass.Info.Uses[fun]]; ok {
			return bodyHasRecoverBarrier(pass, decl.Body)
		}
	case *ast.SelectorExpr:
		if fromRunctl(pass.Info.Uses[fun.Sel]) {
			return true
		}
		// A same-package method (`go s.worker(ctx)`) is checked against its
		// own declaration, exactly like a plain function.
		if decl, ok := decls[pass.Info.Uses[fun.Sel]]; ok {
			return bodyHasRecoverBarrier(pass, decl.Body)
		}
	}
	return false
}

// bodyHasRecoverBarrier reports whether the function body opens with (i.e.
// contains at its top level) a defer that recovers panics.
func bodyHasRecoverBarrier(pass *Pass, body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		d, ok := stmt.(*ast.DeferStmt)
		if !ok {
			continue
		}
		if isRecoverBarrierCall(pass, d.Call) {
			return true
		}
	}
	return false
}

// isRecoverBarrierCall recognises the accepted barrier shapes: a deferred
// func literal calling recover(), a deferred call into internal/runctl, or
// a deferred helper whose name advertises the recovery.
func isRecoverBarrierCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return callsRecover(pass, fun.Body)
	case *ast.Ident:
		if fromRunctl(pass.Info.Uses[fun]) {
			return true
		}
		return strings.Contains(strings.ToLower(fun.Name), "recover")
	case *ast.SelectorExpr:
		if fromRunctl(pass.Info.Uses[fun.Sel]) {
			return true
		}
		return strings.Contains(strings.ToLower(fun.Sel.Name), "recover")
	}
	return false
}

// callsRecover reports whether the builtin recover() is invoked under n.
func callsRecover(pass *Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "recover" {
				found = true
			}
		}
		return !found
	})
	return found
}

// fromRunctl reports whether the object is declared in internal/runctl.
func fromRunctl(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/runctl")
}
