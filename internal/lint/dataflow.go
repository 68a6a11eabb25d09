package lint

import (
	"go/ast"
	"go/types"
)

// Forward dataflow over the CFG in cfg.go: a fixed-point worklist
// iteration with a caller-supplied lattice. The framework is generic in
// the fact type; analyzers provide bottom/clone/join/transfer, and
// optionally a per-edge refinement hook so branch conditions (the
// `if err != nil` shape pairing cares about) can specialize the fact
// flowing down each successor edge.

// flowFuncs is one analysis' lattice and transfer behaviour over facts
// of type F.
type flowFuncs[F any] struct {
	// bottom returns the "no information" fact blocks start from.
	bottom func() F
	// clone deep-copies a fact so transfer can mutate freely.
	clone func(F) F
	// join merges src into dst, reporting whether dst changed.
	join func(dst, src F) bool
	// transfer applies one statement to the fact in place.
	transfer func(fact F, s ast.Stmt)
	// refine, if non-nil, specializes the fact flowing from b to
	// b.Succs[succIdx] using b.Cond (succIdx 0 = condition true,
	// 1 = false). It must not mutate the input.
	refine func(fact F, b *Block, succIdx int) F
}

// forward runs the analysis to fixed point and returns each block's
// entry fact (the join over incoming edges, before the block's own
// statements run). The entry block starts from init; unreachable blocks
// keep bottom.
func forward[F any](c *CFG, fns flowFuncs[F], init F) map[*Block]F {
	in := make(map[*Block]F, len(c.Blocks))
	for _, b := range c.Blocks {
		in[b] = fns.bottom()
	}
	fns.join(in[c.Entry], init)

	work := []*Block{c.Entry}
	queued := map[*Block]bool{c.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false

		out := fns.clone(in[b])
		for _, s := range b.Stmts {
			fns.transfer(out, s)
		}
		for i, succ := range b.Succs {
			edge := out
			if fns.refine != nil && b.Cond != nil {
				edge = fns.refine(out, b, i)
			}
			if fns.join(in[succ], edge) && !queued[succ] {
				queued[succ] = true
				work = append(work, succ)
			}
		}
	}
	return in
}

// identVar resolves an identifier to the variable it defines or uses.
func identVar(info *types.Info, id *ast.Ident) *types.Var {
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, _ := obj.(*types.Var)
	return v
}
