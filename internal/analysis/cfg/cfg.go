// Package cfg builds a basic-block control-flow graph over a single
// go/ast function body, using only the standard library. It exists so
// histlint's deferunlock analyzer can reason about *paths* — "is the
// lock released on every way out of this function" — instead of the
// purely positional text-order approximation mutexguard uses.
//
// The graph is deliberately small: a Block is a maximal straight-line
// run of statements and the condition/range expressions that decide
// its successors; edges cover if/else, for (all three clauses), range,
// switch (expression and type, with fallthrough), select, labeled
// break/continue, goto, and return. A call to the panic builtin ends
// its block with an edge to Exit, so "every path" analyses see the
// panic exit. Deferred statements appear in the graph as ordinary
// *ast.DeferStmt nodes at their registration point: a path that passes
// the registration is a path on which the deferred call will run at
// function exit, which is exactly the property release-on-all-paths
// checks need.
//
// Function literals are NOT descended into — a closure is a separate
// control-flow universe (it may run after the enclosing frame
// returned), so analyzers build a separate Graph per FuncLit. Nodes
// are statements and decision expressions only; compound statements
// never appear as nodes, so walking a block's Nodes with ast.Inspect
// visits each executed expression exactly once (minus FuncLit bodies,
// which callers must skip, as they must everywhere else).
package cfg

import (
	"fmt"
	"go/ast"
	"io"
)

// Block is one basic block: Nodes execute in order, then control moves
// to one of Succs. A block ending in return or panic has the synthetic
// Exit block as its only successor. Kind is a short debugging label
// ("entry", "if.then", "for.body", ...).
type Block struct {
	Index int
	Kind  string
	Nodes []ast.Node
	Succs []*Block
}

// Graph is the CFG of one function body. Entry is where execution
// starts; Exit is a synthetic, empty block every return, panic and
// fall-off-the-end edge targets. Blocks holds every block (including
// unreachable ones, e.g. code after return) in creation order.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// New builds the CFG for a function body (fd.Body or lit.Body). A nil
// body yields a graph whose Entry falls straight through to Exit.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: make(map[string]*labelInfo)}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	b.current = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edge(b.current, g.Exit)
	return g
}

// builder carries the under-construction graph plus the
// break/continue/fallthrough/goto resolution state.
type builder struct {
	g       *Graph
	current *Block
	targets []*target // innermost last
	labels  map[string]*labelInfo

	// pendingLabel is set by a LabeledStmt so the loop/switch it labels
	// registers break/continue targets under that name.
	pendingLabel string
}

// target is one enclosing breakable construct.
type target struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type labelInfo struct {
	block *Block // the labeled statement's block (goto/continue target)
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.current.Nodes = append(b.current.Nodes, n)
	}
}

// terminate ends the current block with an edge to `to` and starts a
// fresh (possibly unreachable) block for whatever follows.
func (b *builder) terminate(to *Block, kind string) {
	b.edge(b.current, to)
	b.current = b.newBlock(kind)
}

// labelBlock returns (creating on demand) the block a label names, so
// forward gotos resolve.
func (b *builder) labelBlock(name string) *Block {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{block: b.newBlock("label." + name)}
		b.labels[name] = li
	}
	return li.block
}

// findTarget resolves a break/continue to its construct; nil label
// means innermost.
func (b *builder) findTarget(label string, needContinue bool) *target {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if needContinue && t.continueTo == nil {
			continue
		}
		if label == "" || t.label == label {
			return t
		}
	}
	return nil
}

// takeLabel consumes the pending label for the construct now being
// built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// isPanicCall reports whether a statement is a call to the panic
// builtin (syntactically; shadowing panic defeats it, as everywhere).
func isPanicCall(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s) {
			b.terminate(b.g.Exit, "after.panic")
		}
	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt,
		*ast.GoStmt, *ast.DeferStmt, *ast.EmptyStmt:
		b.add(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.terminate(b.g.Exit, "after.return")
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.BlockStmt:
		b.takeLabel()
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.takeLabel()
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.edge(b.current, lb)
		b.current = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
	default:
		// Unknown statement kinds (future syntax) degrade to a plain
		// node: the analyses stay sound for everything they recognise.
		b.add(s)
	}
}

func (b *builder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		if t := b.findTarget(label, false); t != nil {
			b.terminate(t.breakTo, "after.break")
			return
		}
	case "continue":
		if t := b.findTarget(label, true); t != nil {
			b.terminate(t.continueTo, "after.continue")
			return
		}
	case "goto":
		if s.Label != nil {
			b.terminate(b.labelBlock(s.Label.Name), "after.goto")
			return
		}
	case "fallthrough":
		// Handled by the switch builder, which rewires the case body's
		// fall edge; reaching here means a stray fallthrough — ignore.
	}
	b.add(s)
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	head := b.current
	follow := b.newBlock("if.follow")

	thenB := b.newBlock("if.then")
	b.edge(head, thenB)
	b.current = thenB
	b.stmtList(s.Body.List)
	b.edge(b.current, follow)

	if s.Else != nil {
		elseB := b.newBlock("if.else")
		b.edge(head, elseB)
		b.current = elseB
		b.stmt(s.Else)
		b.edge(b.current, follow)
	} else {
		b.edge(head, follow)
	}
	b.current = follow
}

func (b *builder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	b.edge(b.current, head)
	b.current = head
	if s.Cond != nil {
		b.add(s.Cond)
	}
	follow := b.newBlock("for.follow")
	body := b.newBlock("for.body")
	b.edge(head, body)
	if s.Cond != nil {
		b.edge(head, follow)
	}
	contTo := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		b.edge(post, head)
		contTo = post
	}
	b.targets = append(b.targets, &target{label: label, breakTo: follow, continueTo: contTo})
	b.current = body
	b.stmtList(s.Body.List)
	b.edge(b.current, contTo)
	b.targets = b.targets[:len(b.targets)-1]
	b.current = follow
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock("range.head")
	b.edge(b.current, head)
	// The range expression and the per-iteration key/value targets are
	// evaluated at the head; they are plain expressions, safe as nodes.
	head.Nodes = append(head.Nodes, s.X)
	if s.Key != nil {
		head.Nodes = append(head.Nodes, s.Key)
	}
	if s.Value != nil {
		head.Nodes = append(head.Nodes, s.Value)
	}
	follow := b.newBlock("range.follow")
	body := b.newBlock("range.body")
	b.edge(head, body)
	b.edge(head, follow) // the range may be empty (or drained)
	b.targets = append(b.targets, &target{label: label, breakTo: follow, continueTo: head})
	b.current = body
	b.stmtList(s.Body.List)
	b.edge(b.current, head)
	b.targets = b.targets[:len(b.targets)-1]
	b.current = follow
}

func (b *builder) switchStmt(s *ast.SwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.caseClauses(label, s.Body, func(cc *ast.CaseClause, blk *Block) {
		blk.Nodes = append(blk.Nodes, exprNodes(cc.List)...)
	})
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	b.caseClauses(label, s.Body, nil)
}

// caseClauses builds the shared switch/type-switch shape: every case
// body is entered from the head, fallthrough chains to the next body,
// and a missing default adds a head→follow edge.
func (b *builder) caseClauses(label string, body *ast.BlockStmt, guards func(*ast.CaseClause, *Block)) {
	head := b.current
	follow := b.newBlock("switch.follow")
	b.targets = append(b.targets, &target{label: label, breakTo: follow})

	type caseBlk struct {
		cc  *ast.CaseClause
		blk *Block
	}
	var cases []caseBlk
	hasDefault := false
	for _, raw := range body.List {
		cc, ok := raw.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := b.newBlock("case")
		b.edge(head, blk)
		if cc.List == nil {
			hasDefault = true
		}
		if guards != nil {
			guards(cc, blk)
		}
		cases = append(cases, caseBlk{cc, blk})
	}
	if !hasDefault {
		b.edge(head, follow)
	}
	for i, c := range cases {
		b.current = c.blk
		list := c.cc.Body
		fallsThrough := false
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" && i+1 < len(cases) {
				fallsThrough = true
				list = list[:n-1]
			}
		}
		b.stmtList(list)
		if fallsThrough {
			b.edge(b.current, cases[i+1].blk)
		} else {
			b.edge(b.current, follow)
		}
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.current = follow
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.current
	follow := b.newBlock("select.follow")
	b.targets = append(b.targets, &target{label: label, breakTo: follow})
	for _, raw := range s.Body.List {
		cc, ok := raw.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("comm")
		b.edge(head, blk)
		b.current = blk
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edge(b.current, follow)
	}
	// A select with no cases blocks forever: no head→follow edge is
	// added, so code after `select {}` is correctly unreachable.
	b.targets = b.targets[:len(b.targets)-1]
	b.current = follow
}

func exprNodes(list []ast.Expr) []ast.Node {
	nodes := make([]ast.Node, len(list))
	for i, e := range list {
		nodes[i] = e
	}
	return nodes
}

// Reachable reports whether `to` can execute after `from` (following
// successor edges; from is considered to reach itself).
func (g *Graph) Reachable(from, to *Block) bool {
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

// EveryPathHits reports whether every path from block `from`, starting
// at node index `start` within it, that reaches Exit passes at least
// one node for which hit returns true first. Paths that never reach
// Exit (infinite loops) are vacuously satisfied — they never leave the
// function, so nothing escapes unreleased. Because a block is
// straight-line, a hit anywhere in a block covers every path through
// that block: return/panic always terminate their block, so no exit
// can sneak out ahead of a hit in the same block.
func (g *Graph) EveryPathHits(from *Block, start int, hit func(ast.Node) bool) bool {
	for _, n := range from.Nodes[min(start, len(from.Nodes)):] {
		if hit(n) {
			return true
		}
	}
	// escapes(b): some path from the start of b reaches Exit without a
	// hit. Memoised DFS; a cycle contributes no escape of its own.
	memo := make([]int8, len(g.Blocks)) // 0 unknown, 1 escaping, 2 covered/in-progress
	var escapes func(b *Block) bool
	escapes = func(b *Block) bool {
		if b == g.Exit {
			return true
		}
		switch memo[b.Index] {
		case 1:
			return true
		case 2:
			return false
		}
		memo[b.Index] = 2
		blocked := false
		for _, n := range b.Nodes {
			if hit(n) {
				blocked = true
				break
			}
		}
		if !blocked {
			for _, s := range b.Succs {
				if escapes(s) {
					memo[b.Index] = 1
					return true
				}
			}
		}
		return false
	}
	for _, s := range from.Succs {
		if escapes(s) {
			return false
		}
	}
	return true
}

// Dump writes a human-readable rendering, for tests and debugging.
func (g *Graph) Dump(w io.Writer) {
	for _, b := range g.Blocks {
		fmt.Fprintf(w, "b%d(%s):", b.Index, b.Kind)
		for _, s := range b.Succs {
			fmt.Fprintf(w, " ->b%d", s.Index)
		}
		fmt.Fprintln(w)
	}
}
