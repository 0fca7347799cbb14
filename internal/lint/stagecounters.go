package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"fexipro/internal/obs"
)

// StageCounters enforces the telemetry contract between the pruning
// cascade and the StageCounters schema introduced by the observability
// layer:
//
//  1. any threshold-guarded exit (an if whose condition compares a value
//     derived from a Threshold() call, inside a function that counts
//     into a Stats value — a Stats or *Stats parameter, local variable,
//     or receiver field) must increment a PrunedBy* counter before
//     leaving the loop or function — a pruning decision that is not
//     counted silently corrupts Tables 3/7-style telemetry;
//  2. a struct type named Stats that declares PrunedBy* fields must have
//     a TotalPruned method referencing every one of them (the single
//     collapse point for the per-stage counters);
//  3. a keyed composite literal of a struct named StageCounters must set
//     every field, so schema conversions cannot silently drop a stage;
//  4. string constants named Metric* must satisfy the Prometheus metric
//     naming grammar, via the same obs.ValidMetricName the runtime
//     registry enforces — the static and dynamic checks cannot diverge;
//  5. a PrunedBy* field must never be plainly assigned (counters are
//     monotone within a query: use += or ++; reset the whole Stats).
var StageCounters = &Analyzer{
	Name: "stagecounters",
	Doc:  "enforces StageCounters increments on pruning exits, TotalPruned completeness, and Prometheus metric-name grammar",
	Run:  runStageCounters,
}

func runStageCounters(pass *Pass) {
	for _, file := range pass.Files {
		checkMetricConsts(pass, file)
		checkStatsTypes(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				if node.Body != nil && countsStats(pass, node) {
					checkThresholdExits(pass, node)
				}
			case *ast.CompositeLit:
				checkStageCountersLit(pass, node)
			case *ast.AssignStmt:
				checkPlainCounterAssign(pass, node)
			}
			return true
		})
	}
}

// --- check 4: Metric* constants obey the Prometheus grammar ----------

func checkMetricConsts(pass *Pass, file *ast.File) {
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Metric") {
					continue
				}
				c, ok := pass.Info.Defs[name].(*types.Const)
				if !ok || c.Val().Kind() != constant.String {
					continue
				}
				v := constant.StringVal(c.Val())
				if !obs.ValidMetricName(v) {
					pass.Reportf(name.Pos(),
						"metric-name constant %s = %q violates the Prometheus naming grammar [a-zA-Z_:][a-zA-Z0-9_:]*", name.Name, v)
				}
			}
		}
	}
}

// --- check 2: Stats types collapse every PrunedBy* field -------------

func checkStatsTypes(pass *Pass, file *ast.File) {
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Stats" {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			var stages []string
			for _, f := range st.Fields.List {
				for _, n := range f.Names {
					if strings.HasPrefix(n.Name, "PrunedBy") {
						stages = append(stages, n.Name)
					}
				}
			}
			if len(stages) == 0 {
				continue
			}
			method := findMethod(pass, ts.Name.Name, "TotalPruned")
			if method == nil {
				pass.Reportf(ts.Name.Pos(),
					"Stats declares %d PrunedBy* counters but no TotalPruned() collapse method", len(stages))
				continue
			}
			used := make(map[string]bool)
			ast.Inspect(method.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					used[sel.Sel.Name] = true
				}
				return true
			})
			var missing []string
			for _, s := range stages {
				if !used[s] {
					missing = append(missing, s)
				}
			}
			if len(missing) > 0 {
				sort.Strings(missing)
				pass.Reportf(method.Name.Pos(),
					"TotalPruned omits stage counter(s) %s; every PrunedBy* field must be summed", strings.Join(missing, ", "))
			}
		}
	}
}

// findMethod locates the method named methodName whose receiver base
// type is typeName, anywhere in the unit.
func findMethod(pass *Pass, typeName, methodName string) *ast.FuncDecl {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != methodName || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			if receiverTypeName(fd.Recv.List[0].Type) == typeName {
				return fd
			}
		}
	}
	return nil
}

func receiverTypeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverTypeName(t.X)
	case *ast.IndexExpr:
		return receiverTypeName(t.X)
	}
	return ""
}

// --- check 3: keyed StageCounters literals are complete --------------

func checkStageCountersLit(pass *Pass, lit *ast.CompositeLit) {
	t := pass.TypeOf(lit)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "StageCounters" {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok || len(lit.Elts) == 0 {
		return
	}
	set := make(map[string]bool)
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return // positional literal: the compiler enforces completeness
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			set[id.Name] = true
		}
	}
	var missing []string
	for i := 0; i < st.NumFields(); i++ {
		if name := st.Field(i).Name(); !set[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		pass.Reportf(lit.Pos(),
			"StageCounters literal omits field(s) %s; partial conversions silently drop pruning stages", strings.Join(missing, ", "))
	}
}

// --- check 5: stage counters are monotone --------------------------

func checkPlainCounterAssign(pass *Pass, as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN {
		return
	}
	for _, lhs := range as.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || !strings.HasPrefix(sel.Sel.Name, "PrunedBy") {
			continue
		}
		pass.Reportf(sel.Sel.Pos(),
			"plain assignment to stage counter %s; counters are monotone within a query (use += or ++, reset the whole Stats value)", sel.Sel.Name)
	}
}

// --- check 1: threshold-guarded exits must count the prune -----------

// countsStats reports whether fd counts into a value of a named type
// called Stats (e.g. search.Stats): through a Stats or *Stats
// parameter or local variable, or a receiver struct field of either
// type. Searches return their stats, so the counters of every scan
// loop (each scanRange) live in a parameter or a local.
func countsStats(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := pass.TypeOf(fd.Recv.List[0].Type)
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if t != nil {
			if st, ok := t.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if isStatsType(st.Field(i).Type()) {
						return true
					}
				}
			}
		}
	}
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := pass.Info.Defs[id].(*types.Var); ok && !v.IsField() && isStatsType(v.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isStatsType reports whether t is a named type called Stats or a
// pointer to one.
func isStatsType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Stats"
}

// checkThresholdExits performs a local taint pass: identifiers assigned
// from a Threshold() call (transitively) taint the conditions they
// appear in; any tainted comparison guarding a break/continue/return
// must increment a PrunedBy* counter in that branch.
func checkThresholdExits(pass *Pass, fd *ast.FuncDecl) {
	tainted := make(map[types.Object]bool)
	// Fixpoint over the function's assignments (bodies are short; the
	// bound prevents pathological loops).
	for iter := 0; iter < 8; iter++ {
		changed := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) == 0 {
				return true
			}
			dirty := false
			for _, rhs := range as.Rhs {
				if exprTainted(pass, rhs, tainted) {
					dirty = true
				}
			}
			if !dirty {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.ObjectOf(id)
				if obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !condIsThresholdCompare(pass, ifs.Cond, tainted) {
			return true
		}
		for _, branch := range []ast.Stmt{ifs.Body, ifs.Else} {
			block, ok := branch.(*ast.BlockStmt)
			if !ok || !endsInExit(block) {
				continue
			}
			if !incrementsStageCounter(block) {
				pass.Reportf(ifs.If,
					"threshold-guarded exit does not increment a PrunedBy* stage counter; uncounted prunes corrupt the Tables 3/7 telemetry")
			}
		}
		return true
	})
}

// exprTainted reports whether e contains a Threshold() call or a tainted
// identifier.
func exprTainted(pass *Pass, e ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok {
				name := sel.Sel.Name
				if name == "Threshold" || name == "threshold" {
					found = true
				}
			}
		case *ast.Ident:
			if obj := pass.Info.ObjectOf(node); obj != nil && tainted[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// condIsThresholdCompare reports whether cond contains an ordered
// comparison with a tainted side.
func condIsThresholdCompare(pass *Pass, cond ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			if exprTainted(pass, be.X, tainted) || exprTainted(pass, be.Y, tainted) {
				found = true
			}
		}
		return !found
	})
	return found
}

// endsInExit reports whether the block's last statement leaves the loop
// or function.
func endsInExit(block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	switch last := block.List[len(block.List)-1].(type) {
	case *ast.BranchStmt:
		return last.Tok == token.BREAK || last.Tok == token.CONTINUE
	case *ast.ReturnStmt:
		return true
	}
	return false
}

// incrementsStageCounter reports whether the block (recursively)
// contains a += or ++ on a field named PrunedBy*.
func incrementsStageCounter(block *ast.BlockStmt) bool {
	found := false
	ast.Inspect(block, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			if node.Tok == token.ADD_ASSIGN {
				for _, lhs := range node.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "PrunedBy") {
						found = true
					}
				}
			}
		case *ast.IncDecStmt:
			if node.Tok == token.INC {
				if sel, ok := node.X.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "PrunedBy") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
