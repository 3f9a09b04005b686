package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// This file is the shared mutex-identity layer under deferunlock and
// lockorder: it recognises sync.Mutex/RWMutex method calls and resolves
// the lock they act on to two levels of identity —
//
//   - instance: "which lock value in this function" (root variable
//     plus the field path reaching the mutex), used to match a Lock
//     with its Unlock;
//   - node: "which lock in the program" (the mutex field or package
//     variable object), used as the vertex identity of the project-
//     wide lock-acquisition graph, where every *Client.mu is one lock.

// lockOp is the kind of mutex call.
type lockOp int

const (
	opLock lockOp = iota
	opRLock
	opUnlock
	opRUnlock
)

func (op lockOp) String() string {
	switch op {
	case opLock:
		return "Lock"
	case opRLock:
		return "RLock"
	case opUnlock:
		return "Unlock"
	default:
		return "RUnlock"
	}
}

// acquires reports whether the op takes the lock (in either mode).
func (op lockOp) acquires() bool { return op == opLock || op == opRLock }

// release returns the op that releases this acquisition.
func (op lockOp) release() lockOp {
	if op == opLock {
		return opUnlock
	}
	return opRUnlock
}

// lockID identifies one resolved mutex.
type lockID struct {
	// instance keys the lock value within one function: root object
	// identity plus the field path. Two mentions of s.mu share it; s.mu
	// and other.mu do not.
	instance string
	// node is the program-wide identity: the mutex field's *types.Var
	// (shared by every instance of the struct) or the plain variable.
	node types.Object
	// display renders the node for humans: "pkg.Type.mu" for fields,
	// "pkg.mu" for variables.
	display string
}

// resolveLockCall recognises m.Lock/RLock/Unlock/RUnlock() where the
// callee is sync.Mutex or sync.RWMutex's method (embedded promotion
// included) and the receiver chain is resolvable to a variable or a
// field path. ok is false for anything else — locks reached through
// map lookups, function results or interfaces are out of scope.
func resolveLockCall(pass *Pass, call *ast.CallExpr) (op lockOp, id lockID, ok bool) {
	se, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return 0, lockID{}, false
	}
	switch se.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return 0, lockID{}, false
	}
	sel, found := pass.Info.Selections[se]
	if !found || sel.Kind() != types.MethodVal {
		return 0, lockID{}, false
	}
	fn, _ := sel.Obj().(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return 0, lockID{}, false
	}

	root, fields, resolved := fieldChain(pass, se.X)
	if !resolved {
		return 0, lockID{}, false
	}
	// The method selection's index path names any embedded fields
	// between the receiver expression's type and the sync type
	// (type T struct{ sync.Mutex }; t.Lock()). Append them so the
	// identity lands on the actual mutex field.
	fields = append(fields, implicitFields(sel)...)
	id, ok = makeLockID(pass, root, fields)
	if !ok {
		return 0, lockID{}, false
	}
	return op, id, true
}

// fieldChain unwraps expr (parens, derefs, selector chains) to a root
// object plus the ordered field path. A plain identifier yields an
// empty path; a qualified package variable (pkg.Mu) yields that
// variable as the root.
func fieldChain(pass *Pass, expr ast.Expr) (types.Object, []*types.Var, bool) {
	var rev []*types.Var
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			obj := pass.Info.Uses[e]
			if obj == nil {
				obj = pass.Info.Defs[e]
			}
			if _, isVar := obj.(*types.Var); !isVar {
				return nil, nil, false
			}
			return obj, reverseVars(rev), true
		case *ast.SelectorExpr:
			if sel, found := pass.Info.Selections[e]; found {
				if sel.Kind() != types.FieldVal {
					return nil, nil, false
				}
				fv, _ := sel.Obj().(*types.Var)
				if fv == nil {
					return nil, nil, false
				}
				// A selection may itself traverse embedded fields;
				// capture them so s.mu on an embedded struct resolves
				// to the same path as s.embedded.mu.
				implicit := selectionFields(sel)
				for i := len(implicit) - 1; i >= 0; i-- {
					rev = append(rev, implicit[i])
				}
				expr = e.X
			} else if v, isVar := pass.Info.Uses[e.Sel].(*types.Var); isVar {
				// Qualified package-level variable: pkg.Mu.
				return v, reverseVars(rev), true
			} else {
				return nil, nil, false
			}
		default:
			return nil, nil, false
		}
	}
}

func reverseVars(rev []*types.Var) []*types.Var {
	fields := make([]*types.Var, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		fields = append(fields, rev[i])
	}
	return fields
}

// selectionFields maps a field selection's index path to the field
// variables it traverses (the named field plus any embedded hops).
func selectionFields(sel *types.Selection) []*types.Var {
	return indexFields(sel.Recv(), sel.Index())
}

// implicitFields maps a method selection's embedded-field hops (all
// indices but the final method index) to field variables.
func implicitFields(sel *types.Selection) []*types.Var {
	idx := sel.Index()
	if len(idx) <= 1 {
		return nil
	}
	return indexFields(sel.Recv(), idx[:len(idx)-1])
}

func indexFields(t types.Type, idx []int) []*types.Var {
	var fields []*types.Var
	for _, i := range idx {
		st, ok := derefStruct(t)
		if !ok || i >= st.NumFields() {
			return fields
		}
		f := st.Field(i)
		fields = append(fields, f)
		t = f.Type()
	}
	return fields
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// chainKey builds the instance-identity string for a root object plus
// a field-name path, so two mentions of s.inner.mu compare equal.
func chainKey(root types.Object, fields []*types.Var) string {
	names := make([]string, 0, len(fields)+1)
	names = append(names, fmt.Sprintf("%p", root))
	for _, f := range fields {
		names = append(names, f.Name())
	}
	return strings.Join(names, ".")
}

// makeLockID builds both identity levels from a resolved chain.
func makeLockID(pass *Pass, root types.Object, fields []*types.Var) (lockID, bool) {
	id := lockID{instance: chainKey(root, fields)}
	if len(fields) > 0 {
		last := fields[len(fields)-1]
		id.node = last
		id.display = fieldDisplay(pass, root, fields)
	} else {
		// The root variable itself is the mutex (var mu sync.Mutex).
		// Package-level variables are program-wide nodes; locals are
		// function-private, which instance identity already captures.
		id.node = root
		if v, isVar := root.(*types.Var); isVar && v.Pkg() != nil {
			id.display = v.Pkg().Name() + "." + v.Name()
		} else {
			id.display = root.Name()
		}
	}
	return id, id.node != nil
}

// fieldDisplay renders the final mutex field as pkg.Owner.field, using
// the struct type that declares the field.
func fieldDisplay(pass *Pass, root types.Object, fields []*types.Var) string {
	last := fields[len(fields)-1]
	owner := ""
	// Walk the chain types to find the named type owning the last hop.
	t := root.Type()
	for _, f := range fields {
		if f == last {
			if n := namedOf(t); n != nil {
				owner = n.Obj().Name()
			}
			break
		}
		t = f.Type()
	}
	pkg := ""
	if last.Pkg() != nil {
		pkg = last.Pkg().Name() + "."
	}
	if owner != "" {
		return pkg + owner + "." + last.Name()
	}
	return pkg + last.Name()
}

// lockCallIn inspects one CFG node (skipping nested function literals,
// which are separate control-flow universes) and yields every resolved
// mutex call in source order. A *ast.DeferStmt node yields its calls
// flagged deferred — registration point semantics: the release
// happens at function exit, on every path that passed the
// registration.
func lockCallsIn(pass *Pass, node ast.Node, visit func(call *ast.CallExpr, op lockOp, id lockID, deferred bool)) {
	deferred := false
	root := node
	if ds, ok := node.(*ast.DeferStmt); ok {
		deferred = true
		root = ds.Call
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			// Inside a deferred closure the calls still run at exit;
			// keep descending there. Anywhere else a literal's body is
			// someone else's control flow.
			return deferred
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if op, id, ok := resolveLockCall(pass, call); ok {
			visit(call, op, id, deferred)
		}
		return true
	})
}
