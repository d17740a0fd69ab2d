package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// durablePath is the import path of the WAL+snapshot durability layer.
const durablePath = "repro/internal/lockd/durable"

// DurDiscipline enforces the WAL protocol that the durability layer's
// zero-dup/zero-lost guarantee rests on:
//
//  1. Every switch over durable.RecordType covers every declared record
//     kind (or carries an explicit default). State.Apply is the single
//     apply function shared by the live shadow and crash replay; a
//     record kind it silently drops diverges the two without failing a
//     test.
//  2. Durable shadow state (State, SessionState, Counters)
//     mutates only on the apply path: inside State.Apply and the
//     helpers reachable only from it, in constructors (New*, Clone),
//     or on freshly built locals that have not been published. Any
//     other write bypasses the WAL — it changes state that a crash
//     replay will not reproduce.
//  3. The snapshot/truncate ordering helpers (writeSnapshot, wal.reset)
//     are called only from Store methods: the crash-window argument
//     (snapshot rename before WAL truncate, replay skipping
//     LSN <= LastLSN) is made once, in the Store, and holds only if
//     nobody else can reorder the pair.
//
// Rules 1 and 2 run module-wide (other packages must not mutate durable
// state either — the server installs from a Clone and appends records);
// rule 3 is scoped to the durable package, where the helpers live.
var DurDiscipline = &analysis.Analyzer{
	Name: "durdiscipline",
	Doc:  "WAL record kinds fully applied; durable state mutates only via Apply; snapshot ordering stays in the Store",
	Run:  runDurDiscipline,
}

// durableStateTypes are the shadow-state type names rule 2 protects.
var durableStateTypes = map[string]bool{
	"State": true, "SessionState": true, "Counters": true,
}

// inDurableScope reports whether a package path is the durability layer
// itself or a lint fixture standing in for it.
func inDurableScope(pkgPath string) bool {
	return pkgPath == durablePath || strings.Contains(pkgPath, "/lint/testdata/")
}

func runDurDiscipline(pass *analysis.Pass) (any, error) {
	allowed := applyReachable(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkDurFunc(pass, fn, allowed)
		}
		// Rule 1 applies to switches anywhere, including init exprs and
		// function literals the decl walk above does not reach directly.
		ast.Inspect(file, func(n ast.Node) bool {
			if sw, ok := n.(*ast.SwitchStmt); ok && sw.Tag != nil {
				checkRecordSwitch(pass, sw)
			}
			return true
		})
	}
	return nil, nil
}

// checkRecordSwitch enforces rule 1 on a switch whose tag is a
// durable.RecordType.
func checkRecordSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	tv, ok := pass.TypesInfo.Types[sw.Tag]
	if !ok {
		return
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != "RecordType" || !inDurableScope(obj.Pkg().Path()) {
		return
	}

	scope := obj.Pkg().Scope()
	var consts []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(types.Unalias(c.Type()), named) {
			continue
		}
		consts = append(consts, c)
	}
	sort.Slice(consts, func(i, j int) bool { return consts[i].Pos() < consts[j].Pos() })

	covered := make(map[string]bool)
	for _, stmt := range sw.Body.List {
		clause, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			return // explicit default: unhandled kinds cannot fall through silently
		}
		for _, expr := range clause.List {
			if ctv, ok := pass.TypesInfo.Types[expr]; ok && ctv.Value != nil {
				covered[ctv.Value.ExactString()] = true
			}
		}
	}

	var missing []string
	for _, c := range consts {
		if !covered[c.Val().ExactString()] {
			missing = append(missing, qualify(pass, obj, c.Name()))
		}
	}
	if len(missing) == 0 {
		return
	}
	d := analysis.Diagnostic{
		Pos: sw.Pos(),
		End: sw.End(),
		Message: fmt.Sprintf("switch over %s drops record kinds %s: replay and the live shadow must agree on every kind — add the cases or an explicit default",
			qualify(pass, obj, obj.Name()), strings.Join(missing, ", ")),
	}
	if fix, ok := defaultFix(pass, sw, obj); ok {
		d.SuggestedFixes = append(d.SuggestedFixes, fix)
	}
	pass.Report(d)
}

// applyReachable computes the functions allowed to mutate durable state
// in this package: State.Apply, constructors (New*, Clone), plus the
// fixed point of package functions whose in-package callers are all
// themselves allowed (Apply's private helpers). A function with no
// in-package callers is not granted anything — it may be called from
// anywhere.
func applyReachable(pass *analysis.Pass) map[*types.Func]bool {
	if !inDurableScope(pass.Pkg.Path()) {
		return nil
	}
	allowed := make(map[*types.Func]bool)
	callers := make(map[*types.Func]map[*types.Func]bool)
	var fns []*types.Func
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, obj)
			if durAllowedByName(obj) {
				allowed[obj] = true
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var callee *types.Func
				switch e := n.(type) {
				case *ast.Ident:
					callee, _ = pass.TypesInfo.Uses[e].(*types.Func)
				case *ast.SelectorExpr:
					callee, _ = pass.TypesInfo.Uses[e.Sel].(*types.Func)
					// the walk visits e.Sel as an Ident too; counting it
					// here once is enough, duplicates are harmless in a set
				}
				if callee != nil && callee.Pkg() == pass.Pkg {
					if callers[callee] == nil {
						callers[callee] = make(map[*types.Func]bool)
					}
					callers[callee][obj] = true
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if allowed[fn] || len(callers[fn]) == 0 {
				continue
			}
			all := true
			for caller := range callers[fn] {
				if !allowed[caller] && caller != fn {
					all = false
					break
				}
			}
			if all {
				allowed[fn] = true
				changed = true
			}
		}
	}
	return allowed
}

// durAllowedByName grants the base allowed set: the apply function
// itself and constructors that build state before publication.
func durAllowedByName(fn *types.Func) bool {
	name := fn.Name()
	if strings.HasPrefix(name, "New") || name == "Clone" {
		return true
	}
	if name != "Apply" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named, ok := derefNamed(sig.Recv().Type())
	return ok && named.Obj().Name() == "State"
}

// checkDurFunc enforces rules 2 and 3 inside one function body.
func checkDurFunc(pass *analysis.Pass, fn *ast.FuncDecl, allowed map[*types.Func]bool) {
	obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	fnAllowed := obj != nil && (allowed[obj] || durAllowedByName(obj))
	fresh := freshLocals(pass, fn.Body)
	storeMethod := isMethodOf(obj, "Store")

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if !fnAllowed {
				for _, lhs := range n.Lhs {
					checkDurWrite(pass, lhs, fresh, fn.Name.Name)
				}
			}
		case *ast.IncDecStmt:
			if !fnAllowed {
				checkDurWrite(pass, n.X, fresh, fn.Name.Name)
			}
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && !fnAllowed {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) == 2 {
					checkDurWrite(pass, n.Args[0], fresh, fn.Name.Name)
				}
			}
			if inDurableScope(pass.Pkg.Path()) && !storeMethod {
				checkOrderingHelperCall(pass, n, fn.Name.Name)
			}
		}
		return true
	})
}

// checkDurWrite reports a rule-2 violation if expr writes through a
// field of a durable state type from a disallowed context.
func checkDurWrite(pass *analysis.Pass, expr ast.Expr, fresh map[types.Object]bool, fnName string) {
	sel := writtenStateField(pass, expr)
	if sel == nil {
		return
	}
	if rootFreshLocal(pass, sel, fresh) {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos: sel.Sel.Pos(),
		Message: fmt.Sprintf("%s mutates durable state field %s outside the apply path: shadow state changes only inside State.Apply (append a WAL record and let Apply fold it in), so crash replay reproduces it",
			fnName, sel.Sel.Name),
	})
}

// writtenStateField descends the write target (through index, deref,
// parens) to the outermost selector naming a field owned by a durable
// state type.
func writtenStateField(pass *analysis.Pass, expr ast.Expr) *ast.SelectorExpr {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if fs, ok := pass.TypesInfo.Selections[e]; ok && fs.Kind() == types.FieldVal {
				if named, ok := derefNamed(fs.Recv()); ok {
					tn := named.Obj()
					if tn.Pkg() != nil && durableStateTypes[tn.Name()] && inDurableScope(tn.Pkg().Path()) {
						return e
					}
				}
			}
			expr = e.X
		default:
			return nil
		}
	}
}

// checkOrderingHelperCall reports a rule-3 violation: writeSnapshot and
// (*wal).reset implement the two halves of the crash-safe rotation and
// may only be sequenced by Store methods.
func checkOrderingHelperCall(pass *analysis.Pass, call *ast.CallExpr, fnName string) {
	var callee *types.Func
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if callee == nil || callee.Pkg() != pass.Pkg {
		return
	}
	restricted := false
	switch callee.Name() {
	case "writeSnapshot":
		sig, _ := callee.Type().(*types.Signature)
		restricted = sig != nil && sig.Recv() == nil
	case "reset":
		restricted = isMethodOf(callee, "wal")
	}
	if !restricted {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos: call.Pos(),
		Message: fmt.Sprintf("%s calls %s directly: snapshot/WAL-truncate ordering is the Store's crash-safety argument — only Store methods may sequence it",
			fnName, callee.Name()),
	})
}

// isMethodOf reports whether fn is a method whose receiver's named type
// is typeName.
func isMethodOf(fn *types.Func, typeName string) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named, ok := derefNamed(sig.Recv().Type())
	return ok && named.Obj().Name() == typeName
}

// freshLocals collects locals a function builds privately: declared by
// := or var with a composite-literal (or &composite / new) initializer,
// or a zero-valued var declaration. Writes through them are
// construction, not shared-state mutation. This is a heuristic — a
// zero-valued var later assigned a shared pointer slips through — but
// it errs only toward silence, never false findings.
func freshLocals(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && isFreshInit(n.Rhs[i]) {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						fresh[obj] = true
					}
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if len(vs.Values) == 0 || (i < len(vs.Values) && isFreshInit(vs.Values[i])) {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							fresh[obj] = true
						}
					}
				}
			}
		}
		return true
	})
	return fresh
}

// rootFreshLocal reports whether the selector chain roots at a fresh
// local.
func rootFreshLocal(pass *analysis.Pass, e ast.Expr, fresh map[types.Object]bool) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			return obj != nil && fresh[obj]
		default:
			return false
		}
	}
}
