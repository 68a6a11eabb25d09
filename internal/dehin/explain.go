package dehin

import (
	"fmt"
	"strings"

	"github.com/hinpriv/dehin/internal/bipartite"
	"github.com/hinpriv/dehin/internal/hin"
)

// NeighborPairing records one matched neighbor slot: the target's neighbor
// was explained by the auxiliary candidate's neighbor via the same link
// type, in the same direction.
type NeighborPairing struct {
	LinkType hin.LinkTypeID
	// In marks an in-link slot: the neighbor links to the entity, not the
	// reverse. Only attacks with Config.UseInEdges match in-links.
	In             bool
	TargetNeighbor hin.EntityID
	TargetStrength int32
	AuxNeighbor    hin.EntityID
	AuxStrength    int32
}

// MatchExplanation is the evidence DeHIN has for (target entity, auxiliary
// candidate): a concrete witness assignment of target neighbors to
// distinct auxiliary neighbors, per link type and direction. It is what an
// analyst reviews before acting on a de-anonymization claim (the Section
// 1.1 story: "Ada has the same social interactions with the other users of
// the same gender and age...").
type MatchExplanation struct {
	Target, Candidate hin.EntityID
	// Complete is Algorithm 2's verdict on the pair under the attack's
	// configuration (distance, link types, directions, tolerance): for a
	// profile candidate, whether Deanonymize keeps it before any
	// FallbackProfileOnly. At MaxDistance 0 it is always true and there
	// are no pairings.
	Complete bool
	// Pairings is the witness assignment, a maximum matching per link type
	// and direction; the target neighbors it leaves unassigned appear in
	// Unmatched, including any that NeighborTolerance forgives.
	Pairings  []NeighborPairing
	Unmatched []NeighborPairing // AuxNeighbor fields zeroed
}

// ExplainMatch reconstructs the matching evidence for one
// (target, candidate) pair at the attack's configured distance. The
// candidate need not have been accepted; for a rejected candidate the
// explanation shows exactly which neighbor slots could not be filled.
func (a *Attack) ExplainMatch(target hin.GraphBackend, tv, av hin.EntityID) *MatchExplanation {
	ex := &MatchExplanation{Target: tv, Candidate: av, Complete: true}
	n := a.cfg.MaxDistance
	if n == 0 {
		return ex
	}
	s := a.getScratch()
	defer a.putScratch(s)
	a.ensureMemo(s, target)
	var tbuf, abuf hin.EdgeBuf
	explain := func(lt hin.LinkTypeID, in bool) {
		g, need, _ := a.neighborGraph(s, target, n, tv, av, lt, in, false)
		if s.matcher.Match(g) < need {
			ex.Complete = false
		}
		// The graph's vertex numbers index tv's and av's rows; decode
		// them into local cursors, since the frame's belong to the builder.
		tns, tws := edges(target, &tbuf, lt, tv, in)
		ans, aws := edges(a.aux, &abuf, lt, av, in)
		for i, j := range s.matcher.MatchL() {
			p := NeighborPairing{LinkType: lt, In: in, TargetNeighbor: tns[i], TargetStrength: tws[i]}
			if j == bipartite.NoMatch {
				ex.Unmatched = append(ex.Unmatched, p)
				continue
			}
			p.AuxNeighbor, p.AuxStrength = ans[j], aws[j]
			ex.Pairings = append(ex.Pairings, p)
		}
	}
	for _, lt := range a.cfg.LinkTypes {
		explain(lt, false)
		if a.cfg.UseInEdges {
			explain(lt, true)
		}
	}
	return ex
}

// Render writes the explanation with human-readable labels from the two
// graphs. In-link slots carry a "<-" before the link type name.
func (ex *MatchExplanation) Render(target, aux hin.GraphBackend) string {
	var b strings.Builder
	fmt.Fprintf(&b, "target %q vs candidate %q: complete=%v, %d matched, %d unmatched\n",
		target.Label(ex.Target), aux.Label(ex.Candidate), ex.Complete,
		len(ex.Pairings), len(ex.Unmatched))
	name := func(p NeighborPairing) string {
		n := aux.Schema().LinkType(p.LinkType).Name
		if p.In {
			return "<-" + n
		}
		return n
	}
	for _, p := range ex.Pairings {
		fmt.Fprintf(&b, "  %s(%d): %q  <->  %s(%d): %q\n",
			name(p), p.TargetStrength, target.Label(p.TargetNeighbor),
			name(p), p.AuxStrength, aux.Label(p.AuxNeighbor))
	}
	for _, p := range ex.Unmatched {
		fmt.Fprintf(&b, "  %s(%d): %q  <->  UNMATCHED\n",
			name(p), p.TargetStrength, target.Label(p.TargetNeighbor))
	}
	return b.String()
}
