// Package anonymize implements the anonymization schemes the paper
// evaluates DeHIN against, plus utility metrics quantifying what each
// scheme costs:
//
//   - RandomizeIDs - the KDD Cup 2012 release style ("KDDA"): entity ids
//     are replaced by meaningless random strings and entities reordered;
//     structure and attributes are untouched.
//   - CompleteGraph - Complete Graph Anonymity (Section 6.2): every absent
//     link is added as a fake edge so structural k grows to |V|, the best
//     case for the surveyed k-degree / k-neighborhood / k-automorphism /
//     k-symmetry / k-security schemes. Fake short-circuited strengths all
//     take one random constant.
//   - CompleteGraph with VaryWeights - Varying Weight Complete Graph
//     Anonymity (Section 6.3): fake strengths are random per edge,
//     sacrificing far more utility but defeating majority-weight removal.
//   - KDegree - a Liu-Terzi-style k-degree anonymization by edge addition.
//   - GeneralizeStrengths - a k-neighborhood-signature anonymization by
//     strength generalization (coarsening strengths into buckets until
//     every distance-1 neighborhood signature has >= k copies).
//
// Every function in this package is safe for concurrent use: each call
// reads its input graph (never mutating it), builds a fresh output graph,
// and draws randomness only from an RNG derived from the explicit seed
// argument - there is no package-level state. The parallel experiments
// workbench relies on this to release and harden many targets at once.
package anonymize

import (
	"fmt"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
)

// Result is an anonymized graph together with its ground truth: ToOrig[i]
// is the pre-anonymization entity behind anonymized entity i. Experiments
// use ToOrig only for scoring; attacks never see it.
type Result struct {
	Graph  *hin.Graph
	ToOrig []hin.EntityID
}

// RandomizeIDs anonymizes g the way the KDD Cup 2012 release did: entities
// are shuffled, their labels replaced by meaningless random strings, and
// set-attribute values (tag IDs) consistently remapped to meaningless IDs,
// so tag identities cannot be joined with the auxiliary data - only the
// tag count survives, as in the real release. Scalar attributes, links and
// strengths are preserved verbatim (the utility the recommendation task
// needs), which is exactly the residual information DeHIN exploits.
func RandomizeIDs(g *hin.Graph, seed uint64) (*Result, error) {
	rng := randx.New(seed)
	n := g.NumEntities()
	perm := make([]hin.EntityID, n)
	for i, p := range rng.Perm(n) {
		perm[i] = hin.EntityID(p)
	}
	setMap := make(map[int32]int32)
	remapSet := func(vals []int32) []int32 {
		out := make([]int32, len(vals))
		for i, v := range vals {
			m, ok := setMap[v]
			for !ok {
				// Draw fresh meaningless ids, avoiding collisions.
				c := int32(rng.Intn(1 << 30))
				used := false
				for _, x := range setMap {
					if x == c {
						used = true
						break
					}
				}
				if !used {
					m = c
					setMap[v] = c
					ok = true
				}
			}
			out[i] = m
		}
		return out
	}
	ag, err := rebuildWithSets(g, perm, func(i int) string { return anonLabel(rng) }, remapSet)
	if err != nil {
		return nil, err
	}
	return &Result{Graph: ag, ToOrig: perm}, nil
}

// anonLabel draws a random 8-character base-32 string.
func anonLabel(rng *randx.RNG) string {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"
	b := make([]byte, 8)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// rebuildWithSets constructs a new graph whose entity i is g's entity
// perm[i], relabeled by label(i), transforming set-attribute values through
// remapSet when non-nil. Edges and attributes are carried over.
func rebuildWithSets(g *hin.Graph, perm []hin.EntityID, label func(i int) string, remapSet func([]int32) []int32) (*hin.Graph, error) {
	n := g.NumEntities()
	if len(perm) != n {
		return nil, fmt.Errorf("anonymize: permutation size %d != %d entities", len(perm), n)
	}
	inv := make([]hin.EntityID, n)
	seen := make([]bool, n)
	for i, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			return nil, fmt.Errorf("anonymize: invalid permutation at %d", i)
		}
		seen[p] = true
		inv[p] = hin.EntityID(i)
	}
	schema := g.Schema()
	b := hin.NewBuilder(schema)
	for i := 0; i < n; i++ {
		old := perm[i]
		b.AddEntity(g.EntityType(old), label(i), g.Attrs(old)...)
		for _, sa := range schema.EntityType(g.EntityType(old)).SetAttrs {
			if s := g.Set(sa, old); len(s) > 0 {
				if remapSet != nil {
					s = remapSet(s)
				}
				b.SetSet(sa, hin.EntityID(i), s)
			}
		}
	}
	for lt := 0; lt < schema.NumLinkTypes(); lt++ {
		ltid := hin.LinkTypeID(lt)
		for old := 0; old < n; old++ {
			tos, ws := g.OutEdges(ltid, hin.EntityID(old))
			for j, to := range tos {
				if err := b.AddEdge(ltid, inv[old], inv[to], ws[j]); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build()
}

// CGAOptions parameterizes CompleteGraph.
type CGAOptions struct {
	// VaryWeights switches from Complete Graph Anonymity (all fake
	// strengths equal one random constant per link type) to Varying
	// Weight Complete Graph Anonymity (each fake strength random).
	VaryWeights bool
	// StrengthMax bounds random fake strengths (and the constant). It
	// should match the real data's strength range so fakes blend in.
	StrengthMax int
	// Seed drives the fake-strength randomness.
	Seed uint64
}

// CompleteGraph returns a copy of g in which every link type is completed:
// all absent ordered pairs gain a fake edge. Entity order and labels are
// untouched (compose with RandomizeIDs for a full release pipeline). It is
// intended for released target graphs (~10^3 entities); completing a graph
// with more than ~5000 entities is rejected as a likely mistake, since the
// result has O(|L| n^2) edges.
func CompleteGraph(g *hin.Graph, opt CGAOptions) (*hin.Graph, error) {
	n := g.NumEntities()
	if n > 5000 {
		return nil, fmt.Errorf("anonymize: refusing to complete a graph with %d entities", n)
	}
	if opt.StrengthMax < 1 {
		return nil, fmt.Errorf("anonymize: StrengthMax must be >= 1")
	}
	schema := g.Schema()
	for lt := 0; lt < schema.NumLinkTypes(); lt++ {
		decl := schema.LinkType(hin.LinkTypeID(lt))
		if decl.From != decl.To {
			return nil, fmt.Errorf("anonymize: cannot complete cross-type link %q", decl.Name)
		}
	}
	rng := randx.New(opt.Seed)
	strengths := make([][]int32, schema.NumLinkTypes())
	for lt := range strengths {
		ltid := hin.LinkTypeID(lt)
		decl := schema.LinkType(ltid)
		// A completion is a function of the seed through this draw
		// order: the per-type constant first, then one draw per fake
		// edge in (u, v) order.
		constant := int32(rng.IntRange(1, opt.StrengthMax))
		size := n * n
		if !decl.AllowSelf {
			size -= n
		}
		w := make([]int32, 0, size)
		for u := 0; u < n; u++ {
			// Real edges keep their strengths; fake edges fill the gaps.
			// tos is sorted, so one walk over v merges the two in order.
			tos, ws := g.OutEdges(ltid, hin.EntityID(u))
			j := 0
			for v := 0; v < n; v++ {
				s := int32(1)
				switch {
				case j < len(tos) && int(tos[j]) == v:
					s = ws[j]
					j++
				case v == u && !decl.AllowSelf:
					continue
				case decl.Weighted && opt.VaryWeights:
					s = int32(rng.IntRange(1, opt.StrengthMax))
				case decl.Weighted:
					s = constant
				}
				w = append(w, s)
			}
		}
		strengths[lt] = w
	}
	return hin.Complete(g, strengths)
}
