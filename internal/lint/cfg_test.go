package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses a function body snippet into its AST. The CFG builder
// works without type information (info == nil), so the shapes tests stay
// self-contained.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "snippet.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %q: %v", body, err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// blockOf finds the block holding a call statement to the named function
// (markers like a(), b() in the snippets). Fails the test if absent.
func blockOf(t *testing.T, c *CFG, name string) *Block {
	t.Helper()
	for _, b := range c.Blocks {
		for _, s := range b.Stmts {
			found := false
			// The block-local view: container bodies (range/switch/select)
			// live in their own blocks, so don't look inside them here.
			shallowInspect(s, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
						found = true
						return false
					}
				}
				return true
			})
			if found {
				return b
			}
		}
	}
	t.Fatalf("no block contains a call to %s()", name)
	return nil
}

// onCycle reports whether b can reach itself through at least one edge.
// The search starts from b's successors, because reachableFrom always
// includes its start block.
func onCycle(b *Block) bool {
	for _, s := range b.Succs {
		if reachableFrom(s)[b] {
			return true
		}
	}
	return false
}

// requireAcyclic fails if any block of the graph is on a cycle.
func requireAcyclic(t *testing.T, c *CFG, what string) {
	t.Helper()
	for _, b := range c.Blocks {
		if onCycle(b) {
			t.Errorf("%s: block %d is on a cycle", what, b.Index)
		}
	}
}

func TestCFGStraightLine(t *testing.T) {
	c := buildCFG(parseBody(t, "a()\nb()"), nil)
	live := reachableFrom(c.Entry)
	if !live[c.Exit] {
		t.Error("exit must be reachable")
	}
	if live[c.Panic] {
		t.Error("panic sink must be unreachable without panic-shaped calls")
	}
	requireAcyclic(t, c, "straight-line code")
	if blockOf(t, c, "a") != blockOf(t, c, "b") {
		t.Error("consecutive statements belong to one basic block")
	}
}

func TestCFGIfElse(t *testing.T) {
	c := buildCFG(parseBody(t, "if cond {\na()\n} else {\nb()\n}\nm()"), nil)
	live := reachableFrom(c.Entry)
	ba, bb, bm := blockOf(t, c, "a"), blockOf(t, c, "b"), blockOf(t, c, "m")
	for _, b := range []*Block{ba, bb, bm} {
		if !live[b] {
			t.Errorf("block %d must be entry-reachable", b.Index)
		}
	}
	if ba == bb {
		t.Error("then and else bodies are separate blocks")
	}
	if !reachableFrom(ba)[bm] || !reachableFrom(bb)[bm] {
		t.Error("both branches must reach the merge")
	}
	if c.Entry.Cond == nil {
		t.Error("the branching block must carry the if condition")
	}
	if got := c.Entry.Succs; len(got) != 2 || got[0] != ba || got[1] != bb {
		t.Errorf("branch successors must be ordered [true, false]")
	}
}

func TestCFGEarlyReturn(t *testing.T) {
	c := buildCFG(parseBody(t, "if cond {\nreturn\n}\na()"), nil)
	if !reachableFrom(c.Entry)[blockOf(t, c, "a")] {
		t.Error("code after a conditional return stays reachable")
	}

	c = buildCFG(parseBody(t, "return\ndead()"), nil)
	if reachableFrom(c.Entry)[blockOf(t, c, "dead")] {
		t.Error("code after an unconditional return must be unreachable")
	}
	if !reachableFrom(c.Entry)[c.Exit] {
		t.Error("the return must reach exit")
	}
}

func TestCFGForLoop(t *testing.T) {
	c := buildCFG(parseBody(t, "for i := 0; i < n; i++ {\na()\n}\nm()"), nil)
	// The body must be able to come back around to itself via the post.
	if !onCycle(blockOf(t, c, "a")) {
		t.Error("the loop body must be on a cycle")
	}
	if onCycle(blockOf(t, c, "m")) {
		t.Error("code after the loop is not on a cycle")
	}
	if !reachableFrom(c.Entry)[c.Exit] {
		t.Error("a conditioned loop must reach exit")
	}
}

func TestCFGForever(t *testing.T) {
	c := buildCFG(parseBody(t, "for {\na()\n}"), nil)
	if reachableFrom(c.Entry)[c.Exit] {
		t.Error("for{} without break must not reach exit")
	}
	if !onCycle(blockOf(t, c, "a")) {
		t.Error("for{} body is on a cycle")
	}

	c = buildCFG(parseBody(t, "for {\nif cond {\nbreak\n}\na()\n}\nm()"), nil)
	if !reachableFrom(c.Entry)[blockOf(t, c, "m")] {
		t.Error("break must make the loop exit reachable")
	}
	if !onCycle(blockOf(t, c, "a")) {
		t.Error("the non-breaking path still forms a cycle")
	}
}

func TestCFGBreakIsNotALoop(t *testing.T) {
	// A "loop" whose body unconditionally breaks never iterates: it has
	// no back edge, so its body is not on a cycle.
	c := buildCFG(parseBody(t, "for {\na()\nbreak\n}\nm()"), nil)
	if onCycle(blockOf(t, c, "a")) {
		t.Error("a body that always breaks is not on a cycle")
	}
	if !reachableFrom(c.Entry)[blockOf(t, c, "m")] {
		t.Error("fallthrough after the broken loop stays reachable")
	}
}

func TestCFGRange(t *testing.T) {
	c := buildCFG(parseBody(t, "for _, v := range xs {\na()\n}\nm()"), nil)
	if !onCycle(blockOf(t, c, "a")) {
		t.Error("range body must be on a cycle")
	}
	if !reachableFrom(c.Entry)[blockOf(t, c, "m")] {
		t.Error("range loop must reach its exit")
	}
	// The RangeStmt itself lives whole in the head block.
	found := false
	for _, b := range c.Blocks {
		for _, s := range b.Stmts {
			if _, ok := s.(*ast.RangeStmt); ok {
				found = true
			}
		}
	}
	if !found {
		t.Error("the RangeStmt container must be stored in a block")
	}
}

func TestCFGSwitch(t *testing.T) {
	c := buildCFG(parseBody(t, "switch x {\ncase 1:\na()\ncase 2:\nb()\nfallthrough\ncase 3:\nd()\ndefault:\ne()\n}\nm()"), nil)
	live := reachableFrom(c.Entry)
	for _, name := range []string{"a", "b", "d", "e", "m"} {
		if !live[blockOf(t, c, name)] {
			t.Errorf("case marker %s() must be reachable", name)
		}
	}
	if !reachableFrom(blockOf(t, c, "b"))[blockOf(t, c, "d")] {
		t.Error("fallthrough must chain case 2 into case 3")
	}
	if reachableFrom(blockOf(t, c, "a"))[blockOf(t, c, "b")] {
		t.Error("case bodies without fallthrough must not chain")
	}
	requireAcyclic(t, c, "a switch")
}

func TestCFGSelect(t *testing.T) {
	c := buildCFG(parseBody(t, "select {\ncase <-ch1:\na()\ncase v := <-ch2:\nb()\n}\nm()"), nil)
	live := reachableFrom(c.Entry)
	for _, name := range []string{"a", "b", "m"} {
		if !live[blockOf(t, c, name)] {
			t.Errorf("select marker %s() must be reachable", name)
		}
	}
	if blockOf(t, c, "a") == blockOf(t, c, "b") {
		t.Error("select arms are separate blocks")
	}
}

func TestCFGDefer(t *testing.T) {
	// Defer is a straight-line statement: it stays in its block in order,
	// available to the pairing/goleak scans.
	c := buildCFG(parseBody(t, "defer a()\nb()"), nil)
	ba := blockOf(t, c, "a")
	if ba != blockOf(t, c, "b") {
		t.Error("defer shares the basic block with its neighbors")
	}
	if _, ok := ba.Stmts[0].(*ast.DeferStmt); !ok {
		t.Error("the DeferStmt must be first in the block")
	}
}

func TestCFGGotoLoop(t *testing.T) {
	c := buildCFG(parseBody(t, "i := 0\nagain:\na()\ni++\nif i < n {\ngoto again\n}\nm()"), nil)
	if !onCycle(blockOf(t, c, "a")) {
		t.Error("a goto-formed loop is a cycle")
	}
	if !reachableFrom(c.Entry)[blockOf(t, c, "m")] {
		t.Error("the goto loop's fallthrough must stay reachable")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	c := buildCFG(parseBody(t, "outer:\nfor {\nfor {\nif cond {\nbreak outer\n}\na()\n}\n}\nm()"), nil)
	if !reachableFrom(c.Entry)[blockOf(t, c, "m")] {
		t.Error("break outer must reach past both loops")
	}
	if !onCycle(blockOf(t, c, "a")) {
		t.Error("the inner body is still on a cycle")
	}
}

func TestCFGPanicPath(t *testing.T) {
	c := buildCFG(parseBody(t, "a()\npanic(\"boom\")"), nil)
	live := reachableFrom(c.Entry)
	if live[c.Exit] {
		t.Error("a body ending in panic must not reach the normal exit")
	}
	if !live[c.Panic] {
		t.Error("panic must reach the panic sink")
	}

	c = buildCFG(parseBody(t, "if cond {\npanic(\"boom\")\n}\nm()"), nil)
	live = reachableFrom(c.Entry)
	if !live[c.Exit] || !live[c.Panic] {
		t.Error("a conditional panic keeps both exits reachable")
	}
	if !live[blockOf(t, c, "m")] {
		t.Error("the non-panicking path stays reachable")
	}
}
