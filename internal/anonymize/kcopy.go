package anonymize

import (
	"fmt"
	"strconv"

	"github.com/hinpriv/dehin/internal/hin"
)

// KCopy releases k disjoint copies of g as one graph: every entity then
// has k-1 automorphic images (the copy-swap automorphisms), so the release
// satisfies k-automorphism / k-symmetry in the strictest possible sense -
// no subgraph an adversary knows can pin an entity below confidence 1/k
// WITHIN the released graph.
//
// It exists to demonstrate the paper's deeper point about the surveyed
// structural schemes: DeHIN does not compare target entities with each
// other, it joins them against an external auxiliary network - and each of
// the k copies joins to the same real individual, so the "k-anonymous"
// release de-anonymizes exactly as well as the original (see the
// anonymize tests). Structural indistinguishability inside the release is
// the wrong invariant to protect.
//
// The returned ToOrig maps each released entity to its original (copy
// c of entity v maps to v).
func KCopy(g *hin.Graph, k int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("anonymize: k must be >= 1, got %d", k)
	}
	n := g.NumEntities()
	if int64(n)*int64(k) > int64(1)<<30 {
		return nil, fmt.Errorf("anonymize: %d copies of %d entities is too large", k, n)
	}
	schema := g.Schema()
	b := hin.NewBuilder(schema)
	res := &Result{ToOrig: make([]hin.EntityID, 0, n*k)}
	for c := 0; c < k; c++ {
		for v := 0; v < n; v++ {
			id := hin.EntityID(v)
			nid := b.AddEntity(g.EntityType(id), fmt.Sprintf("%s#%d", g.Label(id), c), g.Attrs(id)...)
			for _, sa := range schema.EntityType(g.EntityType(id)).SetAttrs {
				if s := g.Set(sa, id); len(s) > 0 {
					b.SetSet(sa, nid, s)
				}
			}
			res.ToOrig = append(res.ToOrig, id)
		}
	}
	for lt := 0; lt < schema.NumLinkTypes(); lt++ {
		ltid := hin.LinkTypeID(lt)
		for c := 0; c < k; c++ {
			off := hin.EntityID(c * n)
			for v := 0; v < n; v++ {
				tos, ws := g.OutEdges(ltid, hin.EntityID(v))
				for j, to := range tos {
					if err := b.AddEdge(ltid, off+hin.EntityID(v), off+to, ws[j]); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	rg, err := b.Build()
	if err != nil {
		return nil, err
	}
	res.Graph = rg
	return res, nil
}

// AutomorphismLevel verifies the copy-swap anonymity of a KCopy release:
// it returns the number of entities sharing each entity's (attribute,
// per-type out-degree multiset, per-type in-degree) fingerprint, minimized
// over entities - a necessary condition for k-automorphism (every
// automorphic image must share the fingerprint). KCopy(g, k) always scores
// >= k.
func AutomorphismLevel(g *hin.Graph) int {
	counts := make(map[string]int)
	var buf []byte
	for v := 0; v < g.NumEntities(); v++ {
		buf = buf[:0]
		id := hin.EntityID(v)
		for _, a := range g.Attrs(id) {
			buf = strconv.AppendInt(buf, a, 10)
			buf = append(buf, ',')
		}
		for lt := 0; lt < g.Schema().NumLinkTypes(); lt++ {
			buf = append(buf, '|')
			buf = appendInt32(buf, int32(g.OutDegree(hin.LinkTypeID(lt), id)))
			buf = append(buf, ':')
			buf = appendInt32(buf, int32(g.InDegree(hin.LinkTypeID(lt), id)))
		}
		counts[string(buf)]++
	}
	min := 0
	for _, c := range counts {
		if min == 0 || c < min {
			min = c
		}
	}
	return min
}
