package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Fsyncdisc enforces the atomic-publish durability discipline.
//
// Every durable file — checkpoints, job manifests and results, batch
// records, lease files, cache entries — is published with the same crash
// pattern, implemented once in internal/durable: write a temp file, fsync
// the file, rename (WriteAtomic) or hard-link (LinkPublish) it to the
// destination, then fsync the destination's parent directory. Dropping any
// step silently weakens the guarantee — without the file fsync the publish
// can become durable while the data is not (a zero-length or torn file
// after a crash), and without the directory fsync the publish itself can
// be lost (the old file resurrects, or the new one vanishes). This pass
// checks every function containing a publish call (os.Rename or os.Link,
// or any two-argument callee named Rename or Link) for both pieces of
// evidence in the correct order:
//
//   - file-sync evidence before the publish: a Sync method call, or a
//     syncing write helper (a callee named WriteFile or CreateExclusive
//     that is not os.WriteFile — os.WriteFile does not fsync and is called
//     out specifically)
//   - directory-sync evidence after the publish: a callee whose name
//     mentions both sync and dir (SyncDir, ...)
//
// Pure forwarding wrappers are exempt: a function whose publish call is a
// returned expression forwarding two adjacent parameters verbatim (the FS
// implementations — durable.OS.Rename, chaosfs.FS.Link and friends)
// carries no durability responsibility of its own; its callers are
// checked instead. Any new direct os.Rename or os.Link outside
// internal/durable therefore surfaces here. A reviewed exception is
// suppressed with //mmlint:ignore fsyncdisc <reason>.
var Fsyncdisc = &Analyzer{
	Name: "fsyncdisc",
	Doc: "rename and link publishers must fsync the file before the publish " +
		"and the destination's parent directory after it; forwarding wrappers " +
		"(return fsys.Rename(from, to)) are exempt",
	Run: runFsyncdisc,
}

func runFsyncdisc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				checkRenameDiscipline(pass, fn)
			}
		}
	}
	return nil
}

// checkRenameDiscipline inspects one function: every rename or link call
// in it must be bracketed by file-sync evidence (before) and directory-sync
// evidence (after), in source order.
func checkRenameDiscipline(pass *Pass, fn *ast.FuncDecl) {
	// Calls whose value is returned directly, for the forwarding exemption.
	returnCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
			if c, ok := ret.Results[0].(*ast.CallExpr); ok {
				returnCalls[c] = true
			}
		}
		return true
	})

	var publishes []*ast.CallExpr
	var fileSyncs, dirSyncs, osWrites []token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isPublishCall(call):
			publishes = append(publishes, call)
		case isDirSyncCall(call):
			dirSyncs = append(dirSyncs, call.Pos())
		case isPkgFunc(pass.Info, call, "os", "WriteFile"):
			osWrites = append(osWrites, call.Pos())
		case isFileSyncCall(call):
			fileSyncs = append(fileSyncs, call.Pos())
		}
		return true
	})

	for _, call := range publishes {
		if isForwardingRename(pass, fn, call, returnCalls[call]) {
			continue
		}
		pos := call.Pos()
		op := strings.ToLower(calleeName(call))
		if !anyAfter(dirSyncs, pos) {
			if anyBefore(dirSyncs, pos) {
				pass.Reportf(pos,
					"parent-directory fsync precedes the %s; it must follow the %s, or a crash can still lose the directory entry", op, op)
			} else {
				pass.Reportf(pos,
					"%s has no parent-directory fsync after it; a crash can lose the %s even though the file data is durable", op, op)
			}
		}
		if !anyBefore(fileSyncs, pos) {
			if anyBefore(osWrites, pos) {
				pass.Reportf(pos,
					"file written with os.WriteFile, which does not fsync; sync the file (or use a syncing write helper) before publishing it with %s", op)
			} else {
				pass.Reportf(pos,
					"published file's content is not fsynced before the %s; the %s can become durable while the data is not", op, op)
			}
		}
	}
}

func anyBefore(positions []token.Pos, pos token.Pos) bool {
	for _, p := range positions {
		if p < pos {
			return true
		}
	}
	return false
}

func anyAfter(positions []token.Pos, pos token.Pos) bool {
	for _, p := range positions {
		if p > pos {
			return true
		}
	}
	return false
}

// isPublishCall recognises os.Rename, os.Link and any two-argument callee
// named Rename or Link (durable.FS routes publishes through methods of
// those names).
func isPublishCall(call *ast.CallExpr) bool {
	if len(call.Args) != 2 {
		return false
	}
	name := calleeName(call)
	return name == "Rename" || name == "Link"
}

// isDirSyncCall recognises directory-fsync helpers by name: the callee
// mentions both "sync" and "dir" (SyncDir, fsyncDir, ...).
func isDirSyncCall(call *ast.CallExpr) bool {
	name := strings.ToLower(calleeName(call))
	return strings.Contains(name, "sync") && strings.Contains(name, "dir")
}

// isFileSyncCall recognises file-durability evidence: an explicit Sync
// method call, or a syncing write helper. os.WriteFile is handled by the
// caller as an explicit non-evidence case.
func isFileSyncCall(call *ast.CallExpr) bool {
	name := calleeName(call)
	if name == "Sync" && len(call.Args) == 0 {
		return true
	}
	return name == "WriteFile" || name == "CreateExclusive"
}

// calleeName returns the bare name of the called function or method
// ("" for indirect calls).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isForwardingRename reports whether the publish call is a pure forwarding
// wrapper: its value is returned directly and its two arguments are two
// adjacent parameters of the enclosing function, in declaration order.
func isForwardingRename(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, inReturn bool) bool {
	if !inReturn || fn.Type.Params == nil {
		return false
	}
	var params []types.Object
	for _, f := range fn.Type.Params.List {
		for _, n := range f.Names {
			params = append(params, pass.Info.Defs[n])
		}
	}
	var idx [2]int
	for i, arg := range call.Args {
		id, ok := arg.(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.Info.Uses[id]
		pos := -1
		for pi, p := range params {
			if p != nil && p == obj {
				pos = pi
				break
			}
		}
		if pos < 0 {
			return false
		}
		idx[i] = pos
	}
	return idx[1] == idx[0]+1
}
