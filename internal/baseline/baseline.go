// Package baseline implements the prior-work attacks the paper positions
// DeHIN against (Section 2.2). The attribute-only attack of
// Narayanan-Shmatikov 2008 is DeHIN at distance 0, so it has no code here.
//
//   - Propagation - a Narayanan-Shmatikov 2009 style structural attack:
//     starting from pre-matched seed pairs, iteratively map target nodes to
//     auxiliary nodes by scoring how many already-mapped neighbors agree,
//     accepting a mapping only when its score stands out (eccentricity
//     test). Unlike DeHIN it needs seeds, uses no attribute or link-type
//     information beyond adjacency, and degrades on small targets - which
//     is precisely the gap the paper identifies.
package baseline

import (
	"fmt"
	"math"
	"slices"

	"github.com/hinpriv/dehin/internal/hin"
)

// PropagationConfig parameterizes the seed-and-propagate attack.
type PropagationConfig struct {
	// Seeds maps target entities to their known auxiliary counterparts -
	// the attack's bootstrap. NS09 obtains these from re-identified
	// cliques; here the experiment supplies them.
	Seeds map[hin.EntityID]hin.EntityID
	// Theta is the eccentricity threshold: a candidate is accepted only
	// if its score exceeds the runner-up by at least Theta standard
	// deviations. NS09 uses ~0.5.
	Theta float64
	// MaxRounds bounds the propagation sweeps.
	MaxRounds int
}

// PropagationResult is the mapping the attack converged to.
type PropagationResult struct {
	// Mapping[tv] is the auxiliary entity chosen for target tv, or
	// hin.NoEntity if unmapped.
	Mapping []hin.EntityID
	// Rounds is how many sweeps ran.
	Rounds int
}

// Propagation runs the structural attack. Both graphs must share a schema;
// adjacency is used undirected and untyped (union over all link types), as
// in the original attack on homogeneous social graphs.
func Propagation(target, aux *hin.Graph, cfg PropagationConfig) (*PropagationResult, error) {
	if cfg.Theta < 0 {
		return nil, fmt.Errorf("baseline: negative Theta")
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 10
	}
	tn, an := target.NumEntities(), aux.NumEntities()
	mapping := make([]hin.EntityID, tn)
	for i := range mapping {
		mapping[i] = hin.NoEntity
	}
	for tv, av := range cfg.Seeds {
		if int(tv) >= tn || int(av) >= an || tv < 0 || av < 0 {
			return nil, fmt.Errorf("baseline: seed (%d,%d) out of range", tv, av)
		}
		mapping[tv] = av
	}
	// inv is mapping's inverse (auxiliary -> target, NoEntity while
	// free), kept current with every accepted pair; it keeps the mapping
	// injective. Filled in target order, so a seed set that maps two
	// targets to one auxiliary entity resolves to the later target
	// whatever order the Seeds map is ranged in.
	inv := make([]hin.EntityID, an)
	for i := range inv {
		inv[i] = hin.NoEntity
	}
	for tv, av := range mapping {
		if av != hin.NoEntity {
			inv[av] = hin.EntityID(tv)
		}
	}

	tAdj := undirectedAdj(target)
	aAdj := undirectedAdj(aux)

	res := &PropagationResult{}
	for round := 0; round < cfg.MaxRounds; round++ {
		changed := false
		for tv := 0; tv < tn; tv++ {
			if mapping[tv] != hin.NoEntity {
				continue
			}
			scores := make(map[hin.EntityID]float64)
			for _, tb := range tAdj[tv] {
				am := mapping[tb]
				if am == hin.NoEntity {
					continue
				}
				// Every auxiliary neighbor of the mapped image is a
				// candidate; normalize by its degree so hubs don't win by
				// volume.
				for _, ab := range aAdj[am] {
					if inv[ab] != hin.NoEntity {
						continue
					}
					scores[ab] += 1 / math.Sqrt(float64(len(aAdj[ab]))+1)
				}
			}
			best, ok := pickEccentric(scores, cfg.Theta)
			if !ok {
				continue
			}
			// Reverse check: run the same scoring from the auxiliary
			// side; accept only if it picks tv back.
			if !reverseAgrees(tv, best, mapping, inv, tAdj, aAdj, cfg.Theta) {
				continue
			}
			mapping[tv] = best
			inv[best] = hin.EntityID(tv)
			changed = true
		}
		res.Rounds = round + 1
		if !changed {
			break
		}
	}
	res.Mapping = mapping
	return res, nil
}

// undirectedAdj merges all link types in both directions into plain
// adjacency lists (deduplicated).
func undirectedAdj(g *hin.Graph) [][]hin.EntityID {
	n := g.NumEntities()
	adj := make([][]hin.EntityID, n)
	for lt := 0; lt < g.Schema().NumLinkTypes(); lt++ {
		for v := 0; v < n; v++ {
			tos, _ := g.OutEdges(hin.LinkTypeID(lt), hin.EntityID(v))
			for _, to := range tos {
				adj[v] = append(adj[v], to)
				adj[to] = append(adj[to], hin.EntityID(v))
			}
		}
	}
	for v := range adj {
		slices.Sort(adj[v])
		adj[v] = slices.Compact(adj[v])
	}
	return adj
}

// pickEccentric returns the top-scoring candidate if its margin over the
// runner-up exceeds theta standard deviations of the score distribution.
func pickEccentric(scores map[hin.EntityID]float64, theta float64) (hin.EntityID, bool) {
	if len(scores) == 0 {
		return hin.NoEntity, false
	}
	var best, second float64
	bestID := hin.NoEntity
	var sum, sumSq float64
	for id, s := range scores {
		sum += s
		sumSq += s * s
		if s > best || (s == best && (bestID == hin.NoEntity || id < bestID)) {
			if bestID != hin.NoEntity {
				second = best
			}
			best, bestID = s, id
		} else if s > second {
			second = s
		}
	}
	n := float64(len(scores))
	if n == 1 {
		return bestID, best > 0
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 1e-12 {
		// All scores equal: nothing stands out.
		return hin.NoEntity, false
	}
	std := math.Sqrt(variance)
	if (best-second)/std < theta {
		return hin.NoEntity, false
	}
	return bestID, true
}

// reverseAgrees scores target candidates for auxiliary node av and checks
// the winner is tv, mirroring NS09's symmetric verification.
func reverseAgrees(tv int, av hin.EntityID, mapping, inv []hin.EntityID, tAdj, aAdj [][]hin.EntityID, theta float64) bool {
	scores := make(map[hin.EntityID]float64)
	for _, ab := range aAdj[av] {
		tm := inv[ab]
		if tm == hin.NoEntity {
			continue
		}
		for _, tb := range tAdj[tm] {
			if mapping[tb] != hin.NoEntity {
				continue
			}
			scores[tb] += 1 / math.Sqrt(float64(len(tAdj[tb]))+1)
		}
	}
	best, ok := pickEccentric(scores, theta)
	return ok && best == hin.EntityID(tv)
}

// Score evaluates a propagation mapping against ground truth, ignoring
// seeds: precision is correct/attempted, coverage attempted/eligible.
func Score(res *PropagationResult, truth []hin.EntityID, seeds map[hin.EntityID]hin.EntityID) (precision, coverage float64) {
	attempted, correct, eligible := 0, 0, 0
	for tv, av := range res.Mapping {
		if _, isSeed := seeds[hin.EntityID(tv)]; isSeed {
			continue
		}
		eligible++
		if av == hin.NoEntity {
			continue
		}
		attempted++
		if av == truth[tv] {
			correct++
		}
	}
	if attempted > 0 {
		precision = float64(correct) / float64(attempted)
	}
	if eligible > 0 {
		coverage = float64(attempted) / float64(eligible)
	}
	return precision, coverage
}
