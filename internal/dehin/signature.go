package dehin

import (
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/par"
)

// degSignature is the auxiliary graph's per-entity, per-link-type degree
// vector, interleaved as out[av*L+k] = out-degree of entity av via
// lts[k] (and likewise in when in-neighborhoods are matched). It lets the
// query engine reject a profile candidate with one flat scan before any
// neighbor enumeration or bipartite matching runs.
//
// Soundness: Algorithm 2 accepts a candidate only if, for every utilized
// link type and direction, a matching assigns `need` target neighbors to
// DISTINCT auxiliary neighbors, where need is the per-type quota after
// NeighborTolerance. Such a matching requires at least `need` auxiliary
// neighbors to exist, whatever the entity and link matchers decide about
// individual pairs - so rejecting when aux degree < need can never drop a
// candidate directionMatch would have kept (it is the same bound
// neighborGraph checks against the auxiliary degree, hoisted in front of
// the whole recursion). Under the growth threat model this is exactly the
// degree-monotonicity that degree-sequence attacks exploit: auxiliary
// neighborhoods only gain edges after the target snapshot. NewAttack still
// disables the filter when RemoveMajorityStrength or a custom LinkMatch/
// EntityMatch is configured - those reshape what "compatible neighbor"
// means, and a conservative gate keeps the pruned engine byte-identical
// to the reference semantics without asking exotic matchers to certify
// the bound.
type degSignature struct {
	lts []hin.LinkTypeID
	out []int32
	in  []int32 // nil unless in-edges are matched
}

// buildDegSignature precomputes the signature on a pool of workers
// (0 = GOMAXPROCS), each shard writing only its own entities' slots.
func buildDegSignature(aux hin.GraphBackend, lts []hin.LinkTypeID, useIn bool, workers int) *degSignature {
	n := aux.NumEntities()
	L := len(lts)
	sig := &degSignature{lts: lts, out: make([]int32, n*L)}
	if useIn {
		sig.in = make([]int32, n*L)
	}
	par.Sweep(workers, n, shardRows, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			for k, lt := range lts {
				sig.out[v*L+k] = int32(aux.OutDegree(lt, hin.EntityID(v)))
				if sig.in != nil {
					sig.in[v*L+k] = int32(aux.InDegree(lt, hin.EntityID(v)))
				}
			}
		}
	})
	return sig
}

// admits reports whether candidate av's degree vector can satisfy the
// target's per-type quotas (see Attack.computeNeeds). needs holds the out
// quotas in [0,L) and, when in-edges are matched, the in quotas in [L,2L).
//
//hin:hot
func (d *degSignature) admits(needs []int32, av hin.EntityID) bool {
	L := len(d.lts)
	base := int(av) * L
	for k := 0; k < L; k++ {
		if d.out[base+k] < needs[k] {
			return false
		}
	}
	if d.in != nil {
		for k := 0; k < L; k++ {
			if d.in[base+k] < needs[L+k] {
				return false
			}
		}
	}
	return true
}

// computeNeeds fills s.needs with the target entity's per-type matching
// quotas (out first, then in when matched), the Attack.quota values
// neighborGraph computes; quotas clamp at zero because a non-positive
// need constrains nothing.
//
//hin:hot
func (a *Attack) computeNeeds(s *queryScratch, target hin.GraphBackend, tv hin.EntityID) {
	L := len(a.cfg.LinkTypes)
	sz := L
	if a.cfg.UseInEdges {
		sz = 2 * L
	}
	if cap(s.needs) < sz {
		//hin:allow hotpath -- pooled growth: reallocates only past the scratch's high-water mark
		s.needs = make([]int32, sz)
	} else {
		s.needs = s.needs[:sz]
	}
	for k, lt := range a.cfg.LinkTypes {
		s.needs[k] = int32(max(0, a.quota(target.OutDegree(lt, tv))))
		if a.cfg.UseInEdges {
			s.needs[L+k] = int32(max(0, a.quota(target.InDegree(lt, tv))))
		}
	}
}
