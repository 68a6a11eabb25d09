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

// Propagation runs the structural attack against the auxiliary graph's
// UndirectedAdj, which callers build once and share across targets.
// Adjacency is used undirected and untyped (union over all link types),
// as in the original attack on homogeneous social graphs.
func Propagation(target *hin.Graph, aAdj [][]hin.EntityID, cfg PropagationConfig) (*PropagationResult, error) {
	if cfg.Theta < 0 {
		return nil, fmt.Errorf("baseline: negative Theta")
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 10
	}
	tn, an := target.NumEntities(), len(aAdj)
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

	tAdj := UndirectedAdj(target)
	// One scorer per side, reused for every vertex: auxiliary candidates
	// for the forward scoring, target candidates for the reverse check.
	aScores, tScores := newScorer(an), newScorer(tn)

	res := &PropagationResult{}
	for round := 0; round < cfg.MaxRounds; round++ {
		changed := false
		for tv := 0; tv < tn; tv++ {
			if mapping[tv] != hin.NoEntity {
				continue
			}
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
					aScores.add(ab, 1/math.Sqrt(float64(len(aAdj[ab]))+1))
				}
			}
			best, ok := aScores.pickEccentric(cfg.Theta)
			if !ok {
				continue
			}
			// Reverse check: run the same scoring from the auxiliary
			// side; accept only if it picks tv back.
			if !reverseAgrees(tv, best, mapping, inv, tAdj, aAdj, tScores, cfg.Theta) {
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

// UndirectedAdj merges all of g's link types in both directions into
// plain adjacency lists, each sorted and deduplicated.
func UndirectedAdj(g *hin.Graph) [][]hin.EntityID {
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

// scorer accumulates candidate scores densely: score[id] is id's running
// score, and touched lists the scored ids in first-touch order. Scores
// are positive, so a zero entry marks an untouched id.
type scorer struct {
	score   []float64
	touched []hin.EntityID
}

func newScorer(n int) *scorer {
	return &scorer{score: make([]float64, n)}
}

func (sc *scorer) add(id hin.EntityID, s float64) {
	if sc.score[id] == 0 {
		sc.touched = append(sc.touched, id)
	}
	sc.score[id] += s
}

// pickEccentric returns the top-scoring candidate if its margin over the
// runner-up exceeds theta standard deviations of the score distribution,
// and clears the scorer for the next vertex. The moments are summed in
// first-touch order, which follows the sorted adjacency lists, so the
// result is a pure function of the graphs and the mapping.
func (sc *scorer) pickEccentric(theta float64) (hin.EntityID, bool) {
	defer sc.reset()
	if len(sc.touched) == 0 {
		return hin.NoEntity, false
	}
	var best, second float64
	bestID := hin.NoEntity
	var sum, sumSq float64
	for _, id := range sc.touched {
		s := sc.score[id]
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
	n := float64(len(sc.touched))
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

func (sc *scorer) reset() {
	for _, id := range sc.touched {
		sc.score[id] = 0
	}
	sc.touched = sc.touched[:0]
}

// reverseAgrees scores target candidates for auxiliary node av and checks
// the winner is tv, mirroring NS09's symmetric verification.
func reverseAgrees(tv int, av hin.EntityID, mapping, inv []hin.EntityID, tAdj, aAdj [][]hin.EntityID, tScores *scorer, theta float64) bool {
	for _, ab := range aAdj[av] {
		tm := inv[ab]
		if tm == hin.NoEntity {
			continue
		}
		for _, tb := range tAdj[tm] {
			if mapping[tb] != hin.NoEntity {
				continue
			}
			tScores.add(tb, 1/math.Sqrt(float64(len(tAdj[tb]))+1))
		}
	}
	best, ok := tScores.pickEccentric(theta)
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
