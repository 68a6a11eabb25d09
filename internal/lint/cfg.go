package lint

import (
	"go/ast"
	"go/types"
)

// This file is the suite's control-flow layer: a per-function CFG of
// basic blocks over go/ast, feeding the dataflow framework in
// dataflow.go. PR 5's analyzers were single-statement pattern checks;
// the lifecycle analyzers (pairing, goleak) need "on every path out of
// the function" and "reachable from here" questions answered, which
// only a CFG can.
//
// The builder covers the full statement grammar the repository uses:
// if/else chains, for and range loops (with break/continue, labeled or
// not), switch and type switch (with fallthrough), select, goto and
// labels, defer, go, and early returns. Function literals are NOT
// inlined — a FuncLit body executes at call time, not where it appears,
// so each literal gets its own CFG (see funcScopes).
//
// Panic-shaped statements (panic, os.Exit, runtime.Goexit, log.Fatal*)
// terminate their block with an edge to a dedicated Panic sink instead
// of Exit: resource-leak obligations do not apply to crash paths, and
// code after them is correctly unreachable.

// Block is one basic block: a maximal straight-line statement sequence.
// If Cond is non-nil the block ends by evaluating it, and Succs[0] is
// the true edge, Succs[1] the false edge — the hook branch-sensitive
// analyses (pairing's err-path refinement) key on.
type Block struct {
	Index int
	Stmts []ast.Stmt
	// Cond is the if/for condition this block terminates on, or nil.
	Cond ast.Expr
	// Succs are the control-flow successors. Two-successor blocks with
	// a non-nil Cond order them [true, false].
	Succs []*Block
}

// CFG is one function body's control-flow graph. Entry starts the body;
// Exit collects every normal way out (returns and falling off the end);
// Panic collects crash exits. Blocks is every block in construction
// order, Entry first.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Panic  *Block
	Blocks []*Block
}

// newBlock appends a fresh block to the graph.
func (c *CFG) newBlock() *Block {
	b := &Block{Index: len(c.Blocks)}
	c.Blocks = append(c.Blocks, b)
	return b
}

// buildCFG constructs the CFG of one function body. info resolves
// callees so panic-shaped calls terminate their block; it may be nil in
// tests, which disables that classification.
func buildCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	c := &CFG{}
	c.Entry = c.newBlock()
	c.Exit = c.newBlock()
	c.Panic = c.newBlock()
	b := &cfgBuilder{cfg: c, cur: c.Entry, info: info, labels: map[string]*labelBlocks{}}
	b.stmtList(body.List)
	b.jump(c.Exit) // falling off the end is an implicit return
	b.resolveGotos()
	return c
}

// labelBlocks records what a label names: the goto/continue target, and
// the break target when the label marks a loop, switch, or select.
type labelBlocks struct {
	target  *Block // goto L / loop head for continue L
	breakTo *Block // break L
	contTo  *Block // continue L
}

type pendingGoto struct {
	from  *Block
	label string
}

// cfgBuilder threads the construction state: the current open block and
// the break/continue target stacks.
type cfgBuilder struct {
	cfg  *CFG
	cur  *Block
	info *types.Info

	breaks    []*Block // innermost-last break targets (loops, switch, select)
	continues []*Block // innermost-last continue targets (loops only)
	labels    map[string]*labelBlocks
	gotos     []pendingGoto

	// pendingLabel carries a just-seen label into the loop/switch it
	// names, so `break L`/`continue L` resolve.
	pendingLabel string
}

// jump closes the current block with an edge to dst and opens a fresh
// (initially unreachable) block for whatever follows.
func (b *cfgBuilder) jump(dst *Block) {
	b.cur.Succs = append(b.cur.Succs, dst)
	b.cur = b.cfg.newBlock()
}

// branch closes the current block on cond with true/false successors
// and returns them for the caller to populate.
func (b *cfgBuilder) branch(cond ast.Expr) (t, f *Block) {
	t, f = b.cfg.newBlock(), b.cfg.newBlock()
	b.cur.Cond = cond
	b.cur.Succs = append(b.cur.Succs, t, f)
	return t, f
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		then, els := b.branch(s.Cond)
		merge := b.cfg.newBlock()
		b.cur = then
		b.stmt(s.Body)
		b.cur.Succs = append(b.cur.Succs, merge)
		b.cur = els
		if s.Else != nil {
			b.stmt(s.Else)
		}
		b.cur.Succs = append(b.cur.Succs, merge)
		b.cur = merge
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, s)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Body, s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.ReturnStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.jump(b.cfg.Exit)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	default:
		// Straight-line statement (assign, decl, expr, defer, go, send,
		// incdec, empty). Panic-shaped calls terminate the block.
		b.cur.Stmts = append(b.cur.Stmts, s)
		if isPanicStmt(b.info, s) {
			b.jump(b.cfg.Panic)
		}
	}
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.cfg.newBlock()
	b.cur.Succs = append(b.cur.Succs, head)
	b.cur = head
	var body, exit *Block
	if s.Cond != nil {
		body, exit = b.branch(s.Cond) // head keeps Cond; Succs = [body, exit]
	} else {
		body, exit = b.cfg.newBlock(), b.cfg.newBlock()
		head.Succs = append(head.Succs, body)
	}
	post := head
	if s.Post != nil {
		post = b.cfg.newBlock()
		b.cur = post
		b.stmt(s.Post)
		b.cur.Succs = append(b.cur.Succs, head)
	}
	b.pushLoop(exit, post, label, head)
	b.cur = body
	b.stmt(s.Body)
	b.cur.Succs = append(b.cur.Succs, post)
	b.popLoop()
	b.cur = exit
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.cfg.newBlock()
	// The range operation itself lives in the head block so analyses
	// see the ranged expression (and key/value definitions) each
	// iteration.
	head.Stmts = append(head.Stmts, s)
	b.cur.Succs = append(b.cur.Succs, head)
	body, exit := b.cfg.newBlock(), b.cfg.newBlock()
	head.Succs = append(head.Succs, body, exit)
	b.pushLoop(exit, head, label, head)
	b.cur = body
	b.stmt(s.Body)
	b.cur.Succs = append(b.cur.Succs, head)
	b.popLoop()
	b.cur = exit
}

// switchStmt handles both expression and type switches: the head
// evaluates init+tag, every case clause is a successor of the head, and
// fallthrough chains a clause into the next one.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, whole ast.Stmt) {
	label := b.takeLabel()
	if init != nil {
		b.stmt(init)
	}
	b.cur.Stmts = append(b.cur.Stmts, whole)
	head := b.cur
	merge := b.cfg.newBlock()
	b.breaks = append(b.breaks, merge)
	if label != "" {
		b.labels[label].breakTo = merge
	}
	var clauses []*Block
	hasDefault := false
	for _, cs := range body.List {
		cc := cs.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		cb := b.cfg.newBlock()
		head.Succs = append(head.Succs, cb)
		clauses = append(clauses, cb)
	}
	if !hasDefault {
		head.Succs = append(head.Succs, merge)
	}
	for i, cs := range body.List {
		cc := cs.(*ast.CaseClause)
		b.cur = clauses[i]
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				if i+1 < len(clauses) {
					b.cur.Succs = append(b.cur.Succs, clauses[i+1])
				}
				b.cur = b.cfg.newBlock()
				continue
			}
			b.stmt(st)
		}
		b.cur.Succs = append(b.cur.Succs, merge)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = merge
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	b.cur.Stmts = append(b.cur.Stmts, s)
	head := b.cur
	merge := b.cfg.newBlock()
	b.breaks = append(b.breaks, merge)
	if label != "" {
		b.labels[label].breakTo = merge
	}
	for _, cs := range s.Body.List {
		cc := cs.(*ast.CommClause)
		cb := b.cfg.newBlock()
		head.Succs = append(head.Succs, cb)
		b.cur = cb
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.cur.Succs = append(b.cur.Succs, merge)
	}
	// A select with no default blocks until a case fires; there is no
	// head→merge edge either way.
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = merge
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.cur.Stmts = append(b.cur.Stmts, s)
	switch s.Tok.String() {
	case "break":
		if s.Label != nil {
			if lb := b.labels[s.Label.Name]; lb != nil && lb.breakTo != nil {
				b.jump(lb.breakTo)
				return
			}
		} else if n := len(b.breaks); n > 0 {
			b.jump(b.breaks[n-1])
			return
		}
		b.cur = b.cfg.newBlock() // malformed; orphan the tail
	case "continue":
		if s.Label != nil {
			if lb := b.labels[s.Label.Name]; lb != nil && lb.contTo != nil {
				b.jump(lb.contTo)
				return
			}
		} else if n := len(b.continues); n > 0 {
			b.jump(b.continues[n-1])
			return
		}
		b.cur = b.cfg.newBlock()
	case "goto":
		b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
		b.cur = b.cfg.newBlock()
	default: // fallthrough outside switchStmt handling: orphan
		b.cur = b.cfg.newBlock()
	}
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	target := b.cfg.newBlock()
	b.cur.Succs = append(b.cur.Succs, target)
	b.cur = target
	lb := b.labels[s.Label.Name]
	if lb == nil {
		lb = &labelBlocks{}
		b.labels[s.Label.Name] = lb
	}
	lb.target = target
	b.pendingLabel = s.Label.Name
	b.stmt(s.Stmt)
	b.pendingLabel = ""
}

// takeLabel consumes the label attached to the construct being built,
// registering it so break L / continue L resolve.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushLoop(brk, cont *Block, label string, head *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if label != "" {
		lb := b.labels[label]
		lb.breakTo, lb.contTo, lb.target = brk, cont, head
	}
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.gotos {
		if lb := b.labels[g.label]; lb != nil && lb.target != nil {
			g.from.Succs = append(g.from.Succs, lb.target)
		}
	}
}

// isPanicStmt reports whether the statement is a call that never
// returns: the panic builtin, os.Exit, runtime.Goexit, or a log.Fatal
// variant.
func isPanicStmt(info *types.Info, s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
		if info == nil {
			return true
		}
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	if info == nil {
		return false
	}
	if fn := pkgFunc(info, call.Fun); fn != nil {
		switch fn.Pkg().Path() {
		case "os":
			return fn.Name() == "Exit"
		case "runtime":
			return fn.Name() == "Goexit"
		case "log":
			switch fn.Name() {
			case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
				return true
			}
		}
	}
	return false
}

// reachableFrom returns the set of blocks reachable from start by
// following successor edges (start itself included).
func reachableFrom(start *Block) map[*Block]bool {
	seen := map[*Block]bool{start: true}
	work := []*Block{start}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// funcScopes yields every function body in the file set of a package:
// each FuncDecl, and each FuncLit as its own scope (literal bodies are
// excluded from their enclosing function's scope — they run at call
// time). decl is the enclosing FuncDecl for literals, nil for file-level
// var initializer literals.
type funcScope struct {
	decl *ast.FuncDecl // nil for literals outside any FuncDecl
	lit  *ast.FuncLit  // nil for the FuncDecl scope itself
	body *ast.BlockStmt
}

func funcScopes(f *ast.File) []funcScope {
	var out []funcScope
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, funcScope{decl: fd, body: fd.Body})
			collectLits(fd.Body, fd, &out)
			continue
		}
		ast.Inspect(d, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				out = append(out, funcScope{lit: fl, body: fl.Body})
				collectLits(fl.Body, nil, &out)
				return false
			}
			return true
		})
	}
	return out
}

// shallowInspect visits a statement as it appears inside a basic block:
// for container statements (range, switch, select) only the header parts
// are visited — their bodies live in other blocks — and FuncLit bodies
// are never entered (they are separate funcScopes). Every other
// statement is walked in full.
func shallowInspect(s ast.Stmt, fn func(ast.Node) bool) {
	visit := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				fn(n) // visible (e.g. for capture analysis) but not entered
				return false
			}
			return fn(n)
		})
	}
	switch s := s.(type) {
	case *ast.RangeStmt:
		visit(s.Key)
		visit(s.Value)
		visit(s.X)
	case *ast.SwitchStmt:
		visit(s.Tag)
	case *ast.TypeSwitchStmt:
		visit(s.Assign)
	case *ast.SelectStmt:
		// comm statements live in their clause blocks
	default:
		visit(s)
	}
}

func collectLits(body *ast.BlockStmt, decl *ast.FuncDecl, out *[]funcScope) {
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			*out = append(*out, funcScope{decl: decl, lit: fl, body: fl.Body})
			collectLits(fl.Body, decl, out)
			return false
		}
		return true
	})
}
