package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Hotalloc enforces the `//mm:noalloc` contract of the evaluation hot path.
//
// The inner synthesis loop (mobility, core allocation, list scheduling,
// communication mapping, DVS) runs millions of times per GA run and is
// kept allocation-free, so population evaluation is bounded by arithmetic,
// not by the allocator and the GC. A function whose doc comment carries `//mm:noalloc` promises
// exactly that, and this pass checks the promise statically: the annotated
// function — and every same-package function it reaches through static
// calls — must contain no allocation site. The dynamic counterpart is the
// `testing.AllocsPerRun == 0` pin suite (`make bench-pins`); the static
// pass catches the regression at lint time, before any benchmark runs.
//
// Flagged allocation sites:
//
//   - make(...) and new(...)
//   - slice and map composite literals
//   - &T{...} (may escape to the heap)
//   - append whose target is not a resliced buffer (no preallocated-cap
//     evidence such as append(buf[:0], ...))
//   - closures capturing outer variables by reference
//   - explicit interface conversions boxing a non-pointer concrete value
//   - string concatenation and fmt.* calls inside loops
//
// A reviewed site that provably does not allocate (or allocates only on a
// cold path) is waived in place with `//mm:alloc-ok <reason>`; the reason
// is mandatory. Cross-package calls are not followed — the AllocsPerRun
// pins are the backstop for those.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "functions annotated //mm:noalloc, and everything they reach through " +
		"same-package static calls, must contain no allocation site; waive a " +
		"reviewed site with //mm:alloc-ok <reason>",
	Run: runHotalloc,
}

var (
	noallocRe = regexp.MustCompile(`^//\s*mm:noalloc\b`)
	allocOkRe = regexp.MustCompile(`^//\s*mm:alloc-ok\b[ \t]*(.*)$`)
)

// allocWaiverKey addresses one //mm:alloc-ok waiver line.
type allocWaiverKey struct {
	file string
	line int
}

func runHotalloc(pass *Pass) error {
	waivers := collectAllocWaivers(pass)

	// Index the package's function declarations and find the annotated
	// roots. Doc comment groups are remembered so stray annotations (not
	// attached to a function) can be flagged.
	decls := make(map[types.Object]*ast.FuncDecl)
	var roots []types.Object
	docComments := make(map[*ast.Comment]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := pass.Info.Defs[fn.Name]
			if obj == nil {
				continue
			}
			if fn.Body != nil {
				decls[obj] = fn
			}
			if fn.Doc == nil {
				continue
			}
			annotated := false
			for _, c := range fn.Doc.List {
				docComments[c] = true
				if noallocRe.MatchString(c.Text) {
					annotated = true
				}
			}
			if annotated {
				if fn.Body == nil {
					pass.Reportf(fn.Name.Pos(), "//mm:noalloc on %s: bodyless functions cannot be checked", fn.Name.Name)
					continue
				}
				roots = append(roots, obj)
			}
		}
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if noallocRe.MatchString(c.Text) && !docComments[c] {
					pass.Reportf(c.Pos(), "misplaced //mm:noalloc: the annotation must be part of a function's doc comment")
				}
			}
		}
	}

	// Transitive closure over same-package static calls. reached maps each
	// checked function to the annotated root it is reached from.
	reached := make(map[types.Object]types.Object)
	queue := make([]types.Object, 0, len(roots))
	for _, r := range roots {
		reached[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		root := reached[obj]
		ast.Inspect(decls[obj].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee types.Object
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				callee = pass.Info.Uses[fun]
			case *ast.SelectorExpr:
				callee = pass.Info.Uses[fun.Sel]
			}
			if _, ok := decls[callee]; ok {
				if _, seen := reached[callee]; !seen {
					reached[callee] = root
					queue = append(queue, callee)
				}
			}
			return true
		})
	}

	for obj, root := range reached {
		fn := decls[obj]
		label := fn.Name.Name
		if root != obj {
			label = root.Name() + " -> " + fn.Name.Name
		}
		checkAllocSites(pass, fn, label, waivers)
	}
	return nil
}

// collectAllocWaivers gathers //mm:alloc-ok directives, flagging waivers
// that fail to state a reason (a bare waiver hides a decision instead of
// recording one).
func collectAllocWaivers(pass *Pass) map[allocWaiverKey]bool {
	waivers := make(map[allocWaiverKey]bool)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allocOkRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				reason := m[1]
				// A trailing //-subcomment is not a reason; the reason must
				// be direct text on the directive itself. (URL reasons keep
				// their scheme prefix and stay non-empty.)
				if i := strings.Index(reason, "//"); i >= 0 {
					reason = reason[:i]
				}
				if strings.TrimSpace(reason) == "" {
					pass.Reportf(c.Pos(), "//mm:alloc-ok waiver must state a reason")
					continue
				}
				waivers[allocWaiverKey{pos.Filename, pos.Line}] = true
			}
		}
	}
	return waivers
}

// allocReport emits one finding unless a reasoned //mm:alloc-ok waiver
// covers the line (or the line above it).
func allocReport(pass *Pass, waivers map[allocWaiverKey]bool, pos token.Pos, format string, args ...any) {
	p := pass.Fset.Position(pos)
	if waivers[allocWaiverKey{p.Filename, p.Line}] || waivers[allocWaiverKey{p.Filename, p.Line - 1}] {
		return
	}
	pass.Reportf(pos, format, args...)
}

// checkAllocSites walks one reachable function body flagging allocation
// sites. Nested function literals are flagged as closures but not
// descended into: the closure allocation itself is the finding.
func checkAllocSites(pass *Pass, fn *ast.FuncDecl, label string, waivers map[allocWaiverKey]bool) {
	loopDepth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			ast.Inspect(n, func(inner ast.Node) bool {
				if inner == n {
					return true
				}
				return walk(inner)
			})
			loopDepth--
			return false
		case *ast.FuncLit:
			if captured := capturedVar(pass, n); captured != "" {
				allocReport(pass, waivers, n.Pos(),
					"noalloc %s: closure captures %q by reference and allocates when it escapes", label, captured)
			}
			return false
		case *ast.CallExpr:
			checkAllocCall(pass, n, label, loopDepth, waivers)
		case *ast.CompositeLit:
			switch pass.Info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				allocReport(pass, waivers, n.Pos(), "noalloc %s: slice literal allocates", label)
			case *types.Map:
				allocReport(pass, waivers, n.Pos(), "noalloc %s: map literal allocates", label)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					allocReport(pass, waivers, n.Pos(), "noalloc %s: &composite literal may escape to the heap", label)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && loopDepth > 0 {
				if t, ok := pass.Info.TypeOf(n).Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
					allocReport(pass, waivers, n.Pos(), "noalloc %s: string concatenation in a loop allocates per iteration", label)
				}
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
}

// checkAllocCall flags allocating calls: make/new, growing appends,
// fmt.* in loops, and explicit interface conversions of non-pointer
// concrete values.
func checkAllocCall(pass *Pass, call *ast.CallExpr, label string, loopDepth int, waivers map[allocWaiverKey]bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				allocReport(pass, waivers, call.Pos(), "noalloc %s: make allocates", label)
			case "new":
				allocReport(pass, waivers, call.Pos(), "noalloc %s: new allocates", label)
			case "append":
				if len(call.Args) > 0 {
					if _, resliced := call.Args[0].(*ast.SliceExpr); !resliced {
						allocReport(pass, waivers, call.Pos(),
							"noalloc %s: append without preallocated-cap evidence may grow the heap; append to a resliced buffer (buf[:0]) or waive", label)
					}
				}
			}
			return
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && loopDepth > 0 {
		if selectorPkgPath(pass.Info, sel) == "fmt" {
			allocReport(pass, waivers, call.Pos(), "noalloc %s: fmt.%s in a loop allocates (interface boxing and formatting buffers)", label, sel.Sel.Name)
			return
		}
	}
	// Explicit conversion to an interface type boxes non-pointer concretes.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		tgt := tv.Type
		if types.IsInterface(tgt.Underlying()) {
			argT := pass.Info.TypeOf(call.Args[0])
			if argT != nil && !types.IsInterface(argT.Underlying()) {
				if _, isPtr := argT.Underlying().(*types.Pointer); !isPtr {
					allocReport(pass, waivers, call.Pos(),
						"noalloc %s: converting non-pointer %s to interface %s boxes on the heap", label, argT, tgt)
				}
			}
		}
	}
}

// capturedVar returns the name of one variable the function literal
// captures from its enclosing scope ("" when it captures nothing).
// Package-level variables and struct fields are not captures.
func capturedVar(pass *Pass, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		// Declared outside the literal's span -> captured.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v.Name()
		}
		return true
	})
	return captured
}
