package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses src as a file containing one function and returns
// its body.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// callNamed matches an ExprStmt (or bare CallExpr) calling ident name.
func callNamed(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok {
			n = ds.Call
		}
		if es, ok := n.(*ast.ExprStmt); ok {
			n = es.X
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == name
	}
}

// findCall locates the block/index of the first call to name.
func findCall(t *testing.T, g *Graph, name string) (*Block, int) {
	t.Helper()
	match := callNamed(name)
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if match(n) {
				return b, i
			}
		}
	}
	t.Fatalf("no call to %s in graph", name)
	return nil, -1
}

// every reports EveryPathHits from just after the call to `from` for
// paths hitting a call to `to`.
func every(t *testing.T, body, from, to string) bool {
	t.Helper()
	g := New(parseBody(t, body))
	b, i := findCall(t, g, from)
	return g.EveryPathHits(b, i+1, callNamed(to))
}

func TestStraightLine(t *testing.T) {
	if !every(t, "lock()\nwork()\nunlock()", "lock", "unlock") {
		t.Error("straight-line release not seen")
	}
	if every(t, "lock()\nwork()", "lock", "unlock") {
		t.Error("missing release not detected")
	}
}

func TestEarlyReturnEscapes(t *testing.T) {
	body := `
lock()
if cond() {
	return
}
unlock()`
	if every(t, body, "lock", "unlock") {
		t.Error("early return without release not detected")
	}
	covered := `
lock()
if cond() {
	unlock()
	return
}
unlock()`
	if !every(t, covered, "lock", "unlock") {
		t.Error("release on both paths not recognised")
	}
}

func TestDeferCoversAllPaths(t *testing.T) {
	body := `
lock()
defer unlock()
if cond() {
	return
}
work()`
	if !every(t, body, "lock", "unlock") {
		t.Error("defer registration should cover every later path")
	}
	conditional := `
lock()
if cond() {
	defer unlock()
	return
}
work()`
	if every(t, conditional, "lock", "unlock") {
		t.Error("conditionally registered defer must not cover the other path")
	}
}

func TestPanicIsAnExit(t *testing.T) {
	body := `
lock()
if cond() {
	panic("boom")
}
unlock()`
	if every(t, body, "lock", "unlock") {
		t.Error("panic path without release not detected")
	}
}

func TestForLoop(t *testing.T) {
	// Release after the loop: the loop may spin, but every path that
	// reaches Exit passes unlock.
	body := `
lock()
for i := 0; i < n; i++ {
	work()
}
unlock()`
	if !every(t, body, "lock", "unlock") {
		t.Error("release after loop not recognised")
	}
	// break jumps past the release.
	escape := `
lock()
for {
	if cond() {
		break
	}
	unlock()
	return
}
work()`
	if every(t, escape, "lock", "unlock") {
		t.Error("break escaping past the release not detected")
	}
}

func TestInfiniteLoopIsVacuous(t *testing.T) {
	// for{} without break never reaches Exit: nothing escapes.
	body := `
lock()
for {
	work()
}`
	if !every(t, body, "lock", "unlock") {
		t.Error("non-exiting loop should satisfy vacuously")
	}
}

func TestRangeLoop(t *testing.T) {
	body := `
lock()
for _, v := range xs {
	use(v)
}
unlock()`
	if !every(t, body, "lock", "unlock") {
		t.Error("release after range not recognised")
	}
	skip := `
lock()
for _, v := range xs {
	if bad(v) {
		return
	}
}
unlock()`
	if every(t, skip, "lock", "unlock") {
		t.Error("return from range body not detected")
	}
}

func TestSwitchFallthroughAndDefault(t *testing.T) {
	body := `
lock()
switch x {
case 1:
	unlock()
case 2:
	unlock()
default:
	unlock()
}`
	if !every(t, body, "lock", "unlock") {
		t.Error("release in every case incl. default not recognised")
	}
	missingDefault := `
lock()
switch x {
case 1:
	unlock()
}`
	if every(t, missingDefault, "lock", "unlock") {
		t.Error("implicit no-default path not detected")
	}
	fall := `
lock()
switch x {
case 1:
	work()
	fallthrough
case 2:
	unlock()
default:
	unlock()
}`
	if !every(t, fall, "lock", "unlock") {
		t.Error("fallthrough into releasing case not recognised")
	}
}

func TestSelect(t *testing.T) {
	body := `
lock()
select {
case <-a:
	unlock()
case <-b:
	unlock()
}`
	if !every(t, body, "lock", "unlock") {
		t.Error("release in every comm clause not recognised")
	}
	leak := `
lock()
select {
case <-a:
	unlock()
case <-b:
}`
	if every(t, leak, "lock", "unlock") {
		t.Error("comm clause without release not detected")
	}
}

func TestGotoAndLabels(t *testing.T) {
	body := `
lock()
goto done
unlock()
done:
	work()`
	if every(t, body, "lock", "unlock") {
		t.Error("goto skipping the release not detected")
	}
	loop := `
lock()
again:
	if cond() {
		goto again
	}
unlock()`
	if !every(t, loop, "lock", "unlock") {
		t.Error("goto loop with trailing release not recognised")
	}
}

func TestLabeledBreak(t *testing.T) {
	body := `
lock()
outer:
	for {
		for {
			if cond() {
				break outer
			}
			if other() {
				break
			}
		}
		unlock()
		return
	}
work()`
	// break outer escapes both loops without ever unlocking.
	if every(t, body, "lock", "unlock") {
		t.Error("labeled break escaping the release not detected")
	}
}

func TestReachable(t *testing.T) {
	g := New(parseBody(t, "a()\nif c() {\n\tb()\n\treturn\n}\nd()"))
	ab, _ := findCall(t, g, "a")
	bb, _ := findCall(t, g, "b")
	db, _ := findCall(t, g, "d")
	if !reachable(g, ab, bb) || !reachable(g, ab, db) {
		t.Error("both branches should be reachable from entry")
	}
	if reachable(g, bb, db) {
		t.Error("d comes after b's return; must be unreachable from it")
	}
	if !reachable(g, ab, g.Exit) {
		t.Error("exit should be reachable")
	}
}

func TestUnreachableAfterReturn(t *testing.T) {
	g := New(parseBody(t, "return\nwork()"))
	wb, _ := findCall(t, g, "work")
	if reachable(g, g.Entry, wb) {
		t.Error("code after return must be unreachable")
	}
}

func TestFuncLitNotDescended(t *testing.T) {
	g := New(parseBody(t, "f := func() { inner() }\nuse(f)"))
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			ast.Inspect(n, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false // callers skip FuncLit bodies; builder keeps them out of separate blocks
				}
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "inner" {
						t.Error("FuncLit body leaked into the enclosing graph")
					}
				}
				return true
			})
		}
	}
}

// reachable reports whether `to` can execute after `from` (following
// successor edges; from is considered to reach itself).
func reachable(g *Graph, from, to *Block) bool {
	seen := make([]bool, len(g.Blocks))
	var dfs func(*Block) bool
	dfs = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b.Index] {
			return false
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}
