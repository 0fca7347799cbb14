package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fexipro/internal/lint/flow"
)

// LockHold enforces index-mutex discipline (DESIGN.md §10/§12): the
// server serializes index access behind a sync.Mutex, and the latency
// budget of every request in the queue includes whatever runs while
// that mutex is held. The analyzer checks, per function:
//
//   - every mu.Lock()/mu.RLock() is balanced by an Unlock — either a
//     `defer mu.Unlock()` or a positionally later mu.Unlock() in the
//     same function (cross-function lock handoff needs a
//     //lint:ignore lockhold directive citing the protocol);
//   - `defer mu.Lock()` — the classic typo for `defer mu.Unlock()` —
//     is flagged with a suggested fix;
//   - no blocking calls while the mutex is held: channel sends/receives
//     and selects, time.Sleep, slog logging (a Handler may write to a
//     blocked pipe), Search*/TopK*Context calls under an exclusive lock
//     (a whole scan extends every queued request by a full scan; under
//     a read lock readers do not queue behind each other, and a writer
//     waits for at most the deadline-bounded scans already running, so
//     direct scan calls there are the documented read path, as in
//     server.search), and calls through function-typed values (the
//     callee is unknown, so the hold-time is unbounded).
//
// The blocking check is interprocedural within a unit: a same-package
// helper whose body (transitively) performs one of the blocking
// operations above is a BLOCKER, and calling it inside a held region is
// reported with the chain of calls that reaches the blocking operation.
// Mutex operations themselves are deliberately NOT treated as blocking
// in callee summaries — lock nesting is the region analysis's job, and
// summarizing Lock as "blocks" would condemn every locked helper.
//
// The held region is the lexical span from the Lock to its matching
// Unlock (or to function end under a defer). Function literals are not
// analyzed as part of the region: they usually run after the function
// returns.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "mutex discipline: balanced Lock/Unlock, no blocking calls while holding a lock",
	Run:  runLockHold,
}

func runLockHold(pass *Pass) {
	decls := make(map[types.Object]*ast.FuncDecl)
	var declOrder []types.Object
	var fds []*ast.FuncDecl
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue // tests block on locks deliberately (race harnesses)
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
				declOrder = append(declOrder, obj)
			}
			fds = append(fds, fd)
		}
	}
	blockers := blockerFixpoint(pass, decls, declOrder)
	for _, fd := range fds {
		checkLocks(pass, blockers, fd)
	}
}

// blockerFixpoint computes which same-unit functions (transitively,
// through same-unit static calls) perform a blocking operation, mapping
// each to the call chain that reaches it (e.g. "relay → time.Sleep").
func blockerFixpoint(pass *Pass, decls map[types.Object]*ast.FuncDecl, declOrder []types.Object) map[types.Object]string {
	blockers := make(map[types.Object]string)
	for changed := true; changed; {
		changed = false
		for _, obj := range declOrder {
			if blockers[obj] != "" {
				continue
			}
			if reason := directBlockReason(pass, blockers, decls[obj].Body); reason != "" {
				blockers[obj] = reason
				changed = true
			}
		}
	}
	return blockers
}

// directBlockReason returns why body blocks (one representative reason),
// or "". Closures are skipped (they run on their own schedule), and a
// select with a default clause exempts its whole subtree, mirroring the
// region analysis.
func directBlockReason(pass *Pass, blockers map[types.Object]string, body *ast.BlockStmt) string {
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			reason = "channel send"
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				reason = "channel receive"
			}
		case *ast.SelectStmt:
			if !selectHasDefault(s) {
				reason = "blocking select"
			}
			return false // comm clauses were judged as a unit
		case *ast.CallExpr:
			if msg := blockingCallMessage(pass, s); msg != "" {
				reason = msg
				return false
			}
			if callee := flow.Callee(pass.Info, s); callee != nil {
				if r := blockers[callee]; r != "" {
					reason = callee.Name() + " → " + r
				}
			}
		}
		return true
	})
	return reason
}

func checkLocks(pass *Pass, blockers map[types.Object]string, fd *ast.FuncDecl) {
	events := collectLockEvents(pass, fd.Body)
	if len(events) == 0 {
		return
	}
	regions, deferTypos, unmatched := pairLockRegions(events, fd.Body.End())

	for _, ev := range deferTypos {
		// defer mu.Lock() is almost certainly a typo for Unlock.
		want := "Unlock"
		if ev.name == "RLock" {
			want = "RUnlock"
		}
		file := pass.Fset.Position(ev.pos).Filename
		off := pass.Offset(ev.selPos)
		pass.ReportFix(ev.pos, SuggestedFix{
			Message: "replace defer " + ev.path + "." + ev.name + " with defer " + ev.path + "." + want,
			Edits: []TextEdit{{
				File:    file,
				Offset:  off,
				End:     off + len(ev.name),
				NewText: want,
			}},
		}, "defer %s.%s() locks at function exit — almost certainly a typo for defer %s.%s()",
			ev.path, ev.name, ev.path, want)
	}
	for _, ev := range unmatched {
		unlock := "Unlock"
		if ev.name == "RLock" {
			unlock = "RUnlock"
		}
		pass.Reportf(ev.pos,
			"%s.%s() has no matching %s in this function — if the lock is handed off across functions, document the protocol with a //lint:ignore lockhold directive",
			ev.path, ev.name, unlock)
	}

	for _, r := range regions {
		flagBlockingInRegion(pass, blockers, fd, r)
	}
}

// flagBlockingInRegion reports blocking operations between the lock and
// its release.
func flagBlockingInRegion(pass *Pass, blockers map[types.Object]string, fd *ast.FuncDecl, r lockRegion) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n.Pos() <= r.pos || n.Pos() >= r.end {
			// Outside the held span. Children may still overlap when the
			// node straddles the region, so keep descending.
			if n.End() <= r.pos || n.Pos() >= r.end {
				return n.End() > r.pos // prune only fully-before subtrees
			}
			return true
		}
		switch s := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(s.Pos(), "channel send while holding %s — a full channel stalls every caller queued on the mutex", r.path)
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				pass.Reportf(s.Pos(), "channel receive while holding %s — an empty channel stalls every caller queued on the mutex", r.path)
			}
		case *ast.SelectStmt:
			if !selectHasDefault(s) {
				pass.Reportf(s.Pos(), "blocking select while holding %s", r.path)
			}
			return false // comm clauses were judged as a unit
		case *ast.CallExpr:
			if r.read && isScanCall(s) {
				return true
			}
			if msg := blockingCallMessage(pass, s); msg != "" {
				pass.Reportf(s.Pos(), "%s while holding %s — move it after the unlock or document why with //lint:ignore lockhold", msg, r.path)
			} else if callee := flow.Callee(pass.Info, s); callee != nil {
				if reason := blockers[callee]; reason != "" {
					pass.Reportf(s.Pos(), "call to %s while holding %s reaches a blocking operation (%s → %s) — move it after the unlock or document why with //lint:ignore lockhold",
						callee.Name(), r.path, callee.Name(), reason)
				}
			}
		}
		return true
	})
}

// selectHasDefault reports whether a select has a default clause (a
// non-blocking poll).
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCallMessage classifies a call as blocking-while-locked, or
// returns "".
func blockingCallMessage(pass *Pass, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		// slog logging: handlers may write to a blocked sink.
		if isSlogValue(pass, fun.X) {
			switch name {
			case "Info", "Warn", "Error", "Debug", "Log", "InfoContext", "WarnContext", "ErrorContext", "DebugContext", "LogAttrs":
				return "slog call (" + name + ")"
			}
		}
		if id, ok := fun.X.(*ast.Ident); ok && id.Name == "time" && name == "Sleep" {
			return "time.Sleep"
		}
		// A whole scan under the index mutex.
		if isSearchEntryName(name) {
			return name + " call (a full scan)"
		}
	case *ast.Ident:
		// Calls through function-typed values: unknown, unbounded callee.
		obj := pass.Info.Uses[fun]
		if obj == nil {
			return ""
		}
		if _, isVar := obj.(*types.Var); isVar {
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				return "call through function value " + fun.Name + " (unbounded hold time)"
			}
		}
	}
	return ""
}

// isScanCall reports whether call is a method call to a scan entry
// point.
func isScanCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && isSearchEntryName(sel.Sel.Name)
}

// isSearchEntryName matches the context-searcher entry points whose
// calls are whole scans.
func isSearchEntryName(name string) bool {
	switch name {
	case "SearchContext", "SearchAboveContext", "TopKAllContext", "TopKJoinContext", "BatchTopKContext":
		return true
	}
	return false
}

// isSlogValue reports whether e is a *slog.Logger or the slog package.
func isSlogValue(pass *Pass, e ast.Expr) bool {
	if id, ok := e.(*ast.Ident); ok {
		if pkg, ok := pass.Info.Uses[id].(*types.PkgName); ok {
			return pkg.Imported().Path() == "log/slog"
		}
	}
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "log/slog" && named.Obj().Name() == "Logger"
}

// isMutexType, flattenChain and the event/region machinery live in
// conc.go, shared with the lockorder, goroutinelife and guardedby
// analyzers.
