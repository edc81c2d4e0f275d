package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Locksafe checks mutex discipline in the service layers.
//
// internal/serve and internal/fleet guard the job table, retry budgets and
// lease state with sync.Mutex/RWMutex, and their correctness arguments are
// all local: each critical section is supposed to be short, bracketed, and
// free of blocking operations. This pass mechanises the review of those
// arguments along four axes:
//
//   - mutex values must not be copied (by-value parameters, results,
//     receivers, assignments from existing values, range variables) — the
//     copy's lock state silently diverges from the original's
//   - no double-Lock of the same mutex on an intra-function path
//     (self-deadlock)
//   - no return with a lock held and no deferred unlock (the early-return
//     path leaks the lock), and no fall-off-the-end with a lock held
//   - no blocking operation (channel send/receive, select without default,
//     time.Sleep, HTTP round-trips) while a lock is held — the lock is
//     pinned across a potentially unbounded wait
//
// The analysis is intra-function and path-insensitive across branches
// (branch bodies are analysed against the state at entry); a reviewed
// false positive — e.g. a helper that intentionally returns with the lock
// held — is suppressed with //mmlint:ignore locksafe <reason>.
var Locksafe = &Analyzer{
	Name: "locksafe",
	Doc: "mutexes in the service layers must not be copied, double-locked, " +
		"leaked on early returns, or held across blocking operations " +
		"(channel ops, time.Sleep, HTTP round-trips)",
	Packages: regexp.MustCompile(`(^|/)internal/(serve|fleet|cas|durable)($|/)`),
	Run:      runLocksafe,
}

func runLocksafe(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkMutexSignature(pass, n)
			case *ast.AssignStmt:
				checkMutexAssign(pass, n)
			case *ast.RangeStmt:
				checkMutexRange(pass, n)
			}
			return true
		})
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				tr := &lockTracker{pass: pass, held: map[string]*lockInfo{}}
				tr.stmts(fn.Body.List)
				tr.checkEnd(fn)
			}
		}
	}
	return nil
}

// --- mutex copy checks ---

// checkMutexSignature flags by-value receivers, parameters and results
// whose type contains a mutex.
func checkMutexSignature(pass *Pass, fn *ast.FuncDecl) {
	var fields []*ast.Field
	if fn.Recv != nil {
		fields = append(fields, fn.Recv.List...)
	}
	if fn.Type.Params != nil {
		fields = append(fields, fn.Type.Params.List...)
	}
	if fn.Type.Results != nil {
		fields = append(fields, fn.Type.Results.List...)
	}
	for _, field := range fields {
		t := pass.Info.TypeOf(field.Type)
		if t == nil || !containsMutex(t) {
			continue
		}
		pass.Reportf(field.Type.Pos(),
			"%s passes %s by value, copying the mutex inside it; use a pointer", fn.Name.Name, t)
	}
}

// checkMutexAssign flags assignments that copy an existing mutex-bearing
// value. Composite literals and function-call results are exempt: a fresh
// literal carries a fresh zero mutex, and a copying return is flagged at
// the callee's signature.
func checkMutexAssign(pass *Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		if !copiesExistingValue(rhs) {
			continue
		}
		t := pass.Info.TypeOf(rhs)
		if t != nil && containsMutex(t) {
			pass.Reportf(as.Lhs[i].Pos(),
				"assignment copies a value of type %s, which contains a mutex; the copy's lock state diverges from the original", t)
		}
	}
}

// checkMutexRange flags range variables that copy mutex-bearing elements.
func checkMutexRange(pass *Pass, r *ast.RangeStmt) {
	for _, e := range []ast.Expr{r.Key, r.Value} {
		if e == nil {
			continue
		}
		if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		t := pass.Info.TypeOf(e)
		if t != nil && containsMutex(t) {
			pass.Reportf(e.Pos(),
				"range variable copies a value of type %s, which contains a mutex; iterate by index or over pointers", t)
		}
	}
}

// copiesExistingValue reports whether evaluating e yields a copy of an
// already-existing value (as opposed to a fresh literal or call result).
func copiesExistingValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return copiesExistingValue(e.X)
	}
	return false
}

// containsMutex reports whether t holds a sync.Mutex or sync.RWMutex by
// value (directly, or inside a struct or array). Pointers, slices, maps
// and interfaces do not propagate: copying them shares the mutex.
func containsMutex(t types.Type) bool {
	return containsMutexRec(t, make(map[types.Type]bool))
}

func containsMutexRec(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if isSyncLockType(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsMutexRec(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsMutexRec(u.Elem(), seen)
	}
	return false
}

// isSyncLockType reports whether t is exactly sync.Mutex or sync.RWMutex.
func isSyncLockType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// --- lock-state path analysis ---

// lockInfo describes one held lock.
type lockInfo struct {
	kind     string // "Lock" or "RLock"
	deferred bool   // a deferred unlock is registered
	pos      token.Pos
	line     int
}

// lockTracker walks one function's statements in source order, tracking
// which mutexes are held. Branch bodies are analysed against a clone of
// the state at branch entry and their effects discarded — the analysis is
// deliberately conservative and intra-function.
type lockTracker struct {
	pass *Pass
	held map[string]*lockInfo
}

func (t *lockTracker) clone() *lockTracker {
	c := &lockTracker{pass: t.pass, held: make(map[string]*lockInfo, len(t.held))}
	for k, v := range t.held {
		li := *v
		c.held[k] = &li
	}
	return c
}

// heldKeys returns the held lock names in stable order.
func (t *lockTracker) heldKeys() []string {
	keys := make([]string, 0, len(t.held))
	for k := range t.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (t *lockTracker) stmts(list []ast.Stmt) {
	for _, s := range list {
		t.stmt(s)
	}
}

func (t *lockTracker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, method, ok := mutexMethodCall(t.pass.Info, call); ok {
				t.transition(key, method, call.Pos())
				return
			}
		}
		t.scanBlocking(s.X)
	case *ast.DeferStmt:
		if key, method, ok := mutexMethodCall(t.pass.Info, s.Call); ok {
			if (method == "Unlock" || method == "RUnlock") && t.held[key] != nil {
				t.held[key].deferred = true
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			t.scanBlocking(r)
		}
		t.checkReturn(s.Pos())
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			t.scanBlocking(r)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			t.stmt(s.Init)
		}
		t.scanBlocking(s.Cond)
		t.clone().stmt(s.Body)
		if s.Else != nil {
			t.clone().stmt(s.Else)
		}
	case *ast.BlockStmt:
		t.stmts(s.List)
	case *ast.ForStmt:
		t.clone().stmt(s.Body)
	case *ast.RangeStmt:
		t.scanBlocking(s.X)
		t.clone().stmt(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			t.stmt(s.Init)
		}
		t.scanBlocking(s.Tag)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				t.clone().stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				t.clone().stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			t.blockingAt(s.Pos(), "select with no default")
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				t.clone().stmts(cc.Body)
			}
		}
	case *ast.SendStmt:
		t.blockingAt(s.Arrow, "channel send")
		t.scanBlocking(s.Value)
	case *ast.LabeledStmt:
		t.stmt(s.Stmt)
	case *ast.GoStmt:
		// Runs on its own goroutine with its own lock discipline.
	}
}

// transition applies one mutex method call to the tracked state.
func (t *lockTracker) transition(key, method string, pos token.Pos) {
	line := t.pass.Fset.Position(pos).Line
	switch method {
	case "Lock", "RLock":
		if prev, ok := t.held[key]; ok && !(method == "RLock" && prev.kind == "RLock") {
			t.pass.Reportf(pos,
				"%s.%s while %s is already held (acquired on line %d): self-deadlock", key, method, key, prev.line)
		}
		t.held[key] = &lockInfo{kind: method, pos: pos, line: line}
	case "Unlock", "RUnlock":
		delete(t.held, key)
	case "TryLock", "TryRLock":
		// Discarding a Try result as a statement acquires unconditionally
		// on the success path; track it without the double-lock check.
		t.held[key] = &lockInfo{kind: strings.TrimPrefix(method, "Try"), pos: pos, line: line}
	}
}

// checkReturn flags locks still held (with no deferred unlock) at a
// return statement: this path leaks the lock.
func (t *lockTracker) checkReturn(pos token.Pos) {
	for _, key := range t.heldKeys() {
		li := t.held[key]
		if li.deferred {
			continue
		}
		t.pass.Reportf(pos,
			"return while %s is held (acquired on line %d) with no deferred unlock: this path leaks the lock", key, li.line)
	}
}

// checkEnd flags locks held when control falls off the end of the
// function body. Skipped when the last statement terminates (the return
// paths were already checked individually).
func (t *lockTracker) checkEnd(fn *ast.FuncDecl) {
	body := fn.Body.List
	if len(body) > 0 && stmtTerminates(body[len(body)-1]) {
		return
	}
	for _, key := range t.heldKeys() {
		li := t.held[key]
		if li.deferred {
			continue
		}
		t.pass.Reportf(li.pos,
			"%s acquired here is still held when %s falls off the end of the function: missing unlock", key, fn.Name.Name)
	}
}

// scanBlocking reports blocking operations under n while any lock is
// held. Function literals are not descended into: they execute later.
func (t *lockTracker) scanBlocking(n ast.Node) {
	if n == nil || len(t.held) == 0 {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				t.blockingAt(n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if isPkgFunc(t.pass.Info, n, "time", "Sleep") {
				t.blockingAt(n.Pos(), "time.Sleep")
			} else if name, ok := httpBlockingCall(t.pass.Info, n); ok {
				t.blockingAt(n.Pos(), "HTTP "+name)
			}
		}
		return true
	})
}

// blockingAt emits one finding for a blocking operation reached with at
// least one lock held, naming the first held lock.
func (t *lockTracker) blockingAt(pos token.Pos, what string) {
	for _, key := range t.heldKeys() {
		li := t.held[key]
		t.pass.Reportf(pos,
			"%s while %s is held (acquired on line %d): the lock is pinned across a potentially unbounded wait", what, key, li.line)
		return
	}
}

// mutexMethodCall recognises a call to a sync.Mutex/RWMutex method
// (including through embedding) and returns a stable key for the lock
// expression plus the method name.
func mutexMethodCall(info *types.Info, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false
	}
	k := lockExprKey(sel.X)
	if k == "" {
		return "", "", false
	}
	return k, fn.Name(), true
}

// lockExprKey canonicalises a lock expression to a stable string key
// ("" when the expression is too dynamic to track).
func lockExprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := lockExprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return lockExprKey(e.X)
	case *ast.StarExpr:
		return lockExprKey(e.X)
	case *ast.IndexExpr:
		base := lockExprKey(e.X)
		idx := ""
		switch i := e.Index.(type) {
		case *ast.Ident:
			idx = i.Name
		case *ast.BasicLit:
			idx = i.Value
		}
		if base == "" || idx == "" {
			return ""
		}
		return base + "[" + idx + "]"
	}
	return ""
}

// httpBlockingCall recognises net/http calls that perform a network
// round-trip (package functions or Client/Transport methods).
func httpBlockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Do", "Get", "Post", "PostForm", "Head", "RoundTrip":
	default:
		return "", false
	}
	if selectorPkgPath(info, sel) == "net/http" {
		return sel.Sel.Name, true
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "net/http" {
		return sel.Sel.Name, true
	}
	return "", false
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// stmtTerminates approximates "control cannot fall past this statement":
// used to decide whether the end of a function body is reachable.
func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			return fun.Name == "panic"
		case *ast.SelectorExpr:
			name := strings.ToLower(fun.Sel.Name)
			return name == "exit" || strings.HasPrefix(name, "fatal")
		}
		return false
	case *ast.BlockStmt:
		return len(s.List) > 0 && stmtTerminates(s.List[len(s.List)-1])
	case *ast.IfStmt:
		return s.Else != nil && stmtTerminates(s.Body) && stmtTerminates(s.Else)
	case *ast.SwitchStmt:
		return clausesTerminate(s.Body, true)
	case *ast.TypeSwitchStmt:
		return clausesTerminate(s.Body, true)
	case *ast.SelectStmt:
		return clausesTerminate(s.Body, false)
	case *ast.ForStmt:
		return s.Cond == nil
	case *ast.LabeledStmt:
		return stmtTerminates(s.Stmt)
	}
	return false
}

// clausesTerminate reports whether every clause of a switch/select body
// terminates; needDefault additionally requires a default clause (a
// switch without one can fall through to the next statement).
func clausesTerminate(body *ast.BlockStmt, needDefault bool) bool {
	hasDefault := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			stmts = c.Body
		}
		if len(stmts) == 0 || !stmtTerminates(stmts[len(stmts)-1]) {
			return false
		}
	}
	return !needDefault || hasDefault
}
