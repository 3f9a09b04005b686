package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// MutexGuard enforces annotated mutex discipline: a struct field whose
// comment says "guarded by <mu>" (where <mu> is a sibling sync.Mutex
// or sync.RWMutex field) may only be touched by methods of the type
// while that mutex is held. This is the mechanical form of the
// histserve locking contract — the single mutex serialising every cube
// call is load-bearing because queries mutate shared state (the eCube
// conversion rewrites historic cells), so an unguarded read is a race,
// not an optimisation.
//
// The check is positional within each function body: an access is
// considered guarded when a <recv>.<mu>.Lock()/RLock() textually
// precedes it with no intervening non-deferred Unlock. Function
// literals are independent scopes — a closure may outlive the lock
// held where it was created, so it must lock for itself. Methods whose
// name ends in "Locked" are exempt by convention: their contract is
// that the caller holds the lock.
var MutexGuard = &Analyzer{
	Name: "mutexguard",
	Doc:  `fields annotated "guarded by mu" are only accessed under that mutex`,
	Run:  runMutexGuard,
}

var guardedByRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// mgGuard is the annotation set of one struct type.
type mgGuard struct {
	typeName *types.TypeName
	muName   string
	muVar    *types.Var
	guarded  map[*types.Var]bool
}

func runMutexGuard(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			tn := receiverTypeName(pass, fd)
			if tn == nil {
				continue
			}
			g, ok := guards[tn]
			if !ok {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			checkGuardedScopes(pass, g, fd)
		}
	}
	return nil
}

// collectGuards finds "guarded by <mu>" field annotations and
// validates them (the named mutex must exist in the same struct and
// be a sync.Mutex or sync.RWMutex).
func collectGuards(pass *Pass) map[*types.TypeName]*mgGuard {
	guards := make(map[*types.TypeName]*mgGuard)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, ok := pass.Info.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				muName, ok := guardAnnotation(field)
				if !ok {
					continue
				}
				muVar := findStructField(pass, st, muName)
				if muVar == nil || !isSyncMutex(muVar.Type()) {
					pass.Reportf(field.Pos(),
						"guarded-by annotation names %q, which is not a sync.Mutex/RWMutex field of this struct", muName)
					continue
				}
				g := guards[tn]
				if g == nil {
					g = &mgGuard{typeName: tn, muName: muName, muVar: muVar, guarded: make(map[*types.Var]bool)}
					guards[tn] = g
				} else if g.muName != muName {
					pass.Reportf(field.Pos(),
						"guarded-by annotations on %s disagree: %q vs %q", tn.Name(), g.muName, muName)
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.Info.Defs[name].(*types.Var); ok {
						g.guarded[v] = true
					}
				}
			}
			return true
		})
	}
	return guards
}

func guardAnnotation(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], true
		}
	}
	return "", false
}

func findStructField(pass *Pass, st *ast.StructType, name string) *types.Var {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name == name {
				v, _ := pass.Info.Defs[n].(*types.Var)
				return v
			}
		}
	}
	return nil
}

func isSyncMutex(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// mgEvent is one lock-relevant occurrence inside a scope, in source
// order.
type mgEvent struct {
	pos      token.Pos
	base     *types.Var // the receiver-ish variable the event is on
	kind     int        // 0 access, 1 lock, 2 unlock
	field    *types.Var // for accesses
	deferred bool       // for unlocks
}

// checkGuardedScopes walks the method body, collecting events per
// lexical function scope (the method body and each nested function
// literal separately), then verifies every guarded-field access
// happens at positive lock depth for its base variable.
func checkGuardedScopes(pass *Pass, g *mgGuard, fd *ast.FuncDecl) {
	var scopes [][]mgEvent
	deferredCall := make(map[*ast.CallExpr]bool)
	var walk func(body ast.Node) int
	walk = func(body ast.Node) int {
		idx := len(scopes)
		scopes = append(scopes, nil)
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				walk(n.Body)
				return false
			case *ast.DeferStmt:
				deferredCall[n.Call] = true
			case *ast.CallExpr:
				if base, lock := g.mutexOp(pass, n); base != nil {
					kind := 2
					if lock {
						kind = 1
					}
					scopes[idx] = append(scopes[idx], mgEvent{
						pos: n.Pos(), base: base, kind: kind, deferred: deferredCall[n],
					})
				}
			case *ast.SelectorExpr:
				sel, ok := pass.Info.Selections[n]
				if !ok || sel.Kind() != types.FieldVal {
					return true
				}
				fieldVar, ok := sel.Obj().(*types.Var)
				if !ok || !g.guarded[fieldVar] {
					return true
				}
				_, base := baseIdentVar(pass, n.X)
				scopes[idx] = append(scopes[idx], mgEvent{
					pos: n.Sel.Pos(), base: base, kind: 0, field: fieldVar,
				})
			}
			return true
		})
		return idx
	}
	walk(fd.Body)

	for _, events := range scopes {
		sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
		depth := make(map[*types.Var]int)
		for _, ev := range events {
			switch ev.kind {
			case 1:
				depth[ev.base]++
			case 2:
				if !ev.deferred { // a deferred unlock holds until return
					depth[ev.base]--
				}
			case 0:
				if ev.base == nil || depth[ev.base] <= 0 {
					pass.Reportf(ev.pos,
						"%s.%s is guarded by %s but accessed without holding it in %s (lock first, or suffix the method name with Locked if the caller holds it)",
						g.typeName.Name(), ev.field.Name(), g.muName, fd.Name.Name)
				}
			}
		}
	}
}

// mutexOp recognises base.<mu>.Lock/RLock/Unlock/RUnlock() on the
// guard's mutex field, returning the base variable and whether the
// call acquires (true) or releases (false); nil base otherwise.
func (g *mgGuard) mutexOp(pass *Pass, call *ast.CallExpr) (*types.Var, bool) {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	var lock bool
	switch se.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
		lock = false
	default:
		return nil, false
	}
	muSel, ok := se.X.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	sel, ok := pass.Info.Selections[muSel]
	if !ok || sel.Kind() != types.FieldVal || sel.Obj() != g.muVar {
		return nil, false
	}
	_, base := baseIdentVar(pass, muSel.X)
	return base, lock
}
