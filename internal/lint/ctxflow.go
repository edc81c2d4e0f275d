package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Ctxflow enforces the cancellation contract of the optimisation layers.
//
// Synthesis runs last minutes to hours; the run-control design
// (docs/RUNCTL.md) promises that cancellation, deadlines and the
// fault-budget abort all stop a run at the next generation boundary. That
// only holds when exported iterating entrypoints accept a context.Context
// (directly, or via an options struct carrying one) and when the context is
// actually propagated instead of being replaced mid-chain by an unguarded
// context.Background().
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc: "exported iterating entrypoints in the optimisation packages must " +
		"accept a context.Context (or a parameter struct carrying one), must " +
		"not silently drop a received context, and may call " +
		"context.Background/TODO only as a nil-context fallback",
	Packages: regexp.MustCompile(`(^|/)internal/(ga|synth|obs|serve|fleet|cas|durable)($|/)`),
	Run:      runCtxflow,
}

// ctxEntrypointRe names the exported functions treated as iterating
// entrypoints. The repository's convention is that long-running drivers are
// the Run*/Synthesize*/... families; helpers looping over bounded
// specification contents (PowerUpperBound, Diversity, ...) are exempt.
var ctxEntrypointRe = regexp.MustCompile(`^(Run|Synthesize|Exhaustive|Pareto|Solve|Optimi[sz]e|Evolve|Search)`)

func runCtxflow(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkEntrypoint(pass, fn)
			checkDroppedContext(pass, fn)
		}
		checkBackgroundCalls(pass, f)
	}
	return nil
}

// checkEntrypoint flags exported iterating entrypoints that cannot be
// cancelled because no parameter carries a context.
func checkEntrypoint(pass *Pass, fn *ast.FuncDecl) {
	if fn.Recv != nil || !fn.Name.IsExported() || !ctxEntrypointRe.MatchString(fn.Name.Name) {
		return
	}
	if !containsLoop(fn.Body) {
		return
	}
	for _, field := range fn.Type.Params.List {
		t := pass.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if isContextType(t) || structCarriesContext(t) {
			return
		}
	}
	pass.Reportf(fn.Name.Pos(),
		"exported iterating entrypoint %s must accept a context.Context (or a parameter struct with a context field) so long runs stay cancellable", fn.Name.Name)
}

// checkDroppedContext flags context parameters that are never used: the
// caller's cancellation signal ends here without reaching the work below.
func checkDroppedContext(pass *Pass, fn *ast.FuncDecl) {
	for _, field := range fn.Type.Params.List {
		t := pass.Info.TypeOf(field.Type)
		if t == nil || !isContextType(t) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := pass.Info.Defs[name]
			if obj == nil {
				continue
			}
			if !identUsed(pass, fn.Body, obj) {
				pass.Reportf(name.Pos(),
					"context parameter %s is dropped: %s never forwards or polls it, so cancellation dies here", name.Name, fn.Name.Name)
			}
		}
	}
}

// checkBackgroundCalls flags context.Background()/context.TODO() calls that
// are not the blessed nil-context fallback `if ctx == nil { ctx =
// context.Background() }`.
func checkBackgroundCalls(pass *Pass, f *ast.File) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch {
		case isPkgFunc(pass.Info, call, "context", "Background"):
			name = "Background"
		case isPkgFunc(pass.Info, call, "context", "TODO"):
			name = "TODO"
		default:
			return true
		}
		if underNilContextGuard(pass, stack) {
			return true
		}
		pass.Reportf(call.Pos(),
			"context.%s() severs the caller's cancellation chain; forward the received context (a nil-guarded fallback `if ctx == nil { ctx = context.Background() }` is allowed)", name)
		return true
	})
}

// underNilContextGuard reports whether the innermost statements enclosing
// the current node include an if whose condition is `<ctx> == nil` (or the
// mirrored form) for a context-typed expression.
func underNilContextGuard(pass *Pass, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifStmt, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		cond, ok := ifStmt.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			continue
		}
		for _, pair := range [][2]ast.Expr{{cond.X, cond.Y}, {cond.Y, cond.X}} {
			expr, nilSide := pair[0], pair[1]
			id, ok := nilSide.(*ast.Ident)
			if !ok || id.Name != "nil" {
				continue
			}
			if t := pass.Info.TypeOf(expr); t != nil && isContextType(t) {
				return true
			}
		}
	}
	return false
}

// containsLoop reports whether any for/range statement appears under n.
func containsLoop(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// structCarriesContext reports whether t (possibly a pointer) is a named
// struct with a field of type context.Context.
func structCarriesContext(t types.Type) bool {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isContextType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// identUsed reports whether obj is referenced anywhere under n.
func identUsed(pass *Pass, n ast.Node, obj types.Object) bool {
	used := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}
