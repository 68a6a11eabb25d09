package dehin

import (
	"sort"

	"github.com/hinpriv/dehin/internal/hin"
)

// RankedCandidate is one auxiliary candidate with its neighborhood match
// score.
type RankedCandidate struct {
	Entity hin.EntityID
	// Score is the fraction of the target's neighbor slots (across
	// utilized link types and directions) that a maximum matching can
	// fill against this candidate, in [0, 1]. Exact candidates (the ones
	// Deanonymize returns at tolerance 0) score 1.
	Score float64
}

// DeanonymizeRanked runs Algorithm 1's candidate generation but instead of
// the boolean accept/reject of Algorithm 2 it scores every profile
// candidate by how much of the target's typed neighborhood it can absorb,
// returning all candidates sorted by descending score (ties broken by
// entity id).
//
// This operationalizes the paper's reduction-rate observation: "even when
// precision is relatively low ... high reduction rate makes manual
// investigation of matched candidates possibly practical" - an analyst
// works the ranked list from the top.
func (a *Attack) DeanonymizeRanked(target hin.GraphBackend, tv hin.EntityID) []RankedCandidate {
	s := a.getScratch()
	defer a.putScratch(s)
	profile := a.profileCandidates(s, target, tv)
	out := make([]RankedCandidate, 0, len(profile))
	a.ensureMemo(s, target)
	for _, av := range profile {
		out = append(out, RankedCandidate{
			Entity: av,
			Score:  a.neighborhoodScore(s, target, tv, av),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Entity < out[j].Entity
	})
	return out
}

// neighborhoodScore computes matched-slots / total-slots at depth
// cfg.MaxDistance (depth 0 scores every profile candidate 1): the size of
// a maximum matching in each (link type, direction) compatibility graph,
// over the number of target neighbors.
func (a *Attack) neighborhoodScore(s *queryScratch, target hin.GraphBackend, tv, av hin.EntityID) float64 {
	if a.cfg.MaxDistance == 0 {
		return 1
	}
	totalSlots, matchedSlots := 0, 0
	count := func(lt hin.LinkTypeID, in bool) {
		g, _, _ := a.neighborGraph(s, target, a.cfg.MaxDistance, tv, av, lt, in, false)
		totalSlots += g.NLeft
		matchedSlots += s.matcher.Match(g)
	}
	for _, lt := range a.cfg.LinkTypes {
		count(lt, false)
		if a.cfg.UseInEdges {
			count(lt, true)
		}
	}
	if totalSlots == 0 {
		return 1
	}
	return float64(matchedSlots) / float64(totalSlots)
}
