// Package baseline implements the prior-work attacks the paper positions
// DeHIN against (Section 2.2):
//
//   - ProfileOnly - the relational micro-data attack of Narayanan-Shmatikov
//     2008 transplanted to this setting: match on attribute information
//     alone, ignoring the graph. Equivalent to DeHIN at distance 0.
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
	"sort"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/par"
)

// ProfileOnly returns, for each target entity, the auxiliary entities whose
// declared profile attributes match exactly. It is the paper's
// "utilizing attribute information of micro-data" strawman.
func ProfileOnly(target, aux *hin.Graph, attrs []int) ([][]hin.EntityID, error) {
	for _, ai := range attrs {
		if ai < 0 {
			return nil, fmt.Errorf("baseline: negative attribute index %d", ai)
		}
	}
	type key string
	index := make(map[key][]hin.EntityID)
	enc := func(g *hin.Graph, v hin.EntityID) (key, error) {
		var b []byte
		for _, ai := range attrs {
			if ai >= g.NumAttrs(v) {
				return "", fmt.Errorf("baseline: attr %d out of range", ai)
			}
			x := g.Attr(v, ai)
			for i := 0; i < 8; i++ {
				b = append(b, byte(x))
				x >>= 8
			}
		}
		return key(b), nil
	}
	for v := 0; v < aux.NumEntities(); v++ {
		k, err := enc(aux, hin.EntityID(v))
		if err != nil {
			return nil, err
		}
		index[k] = append(index[k], hin.EntityID(v))
	}
	out := make([][]hin.EntityID, target.NumEntities())
	for v := 0; v < target.NumEntities(); v++ {
		k, err := enc(target, hin.EntityID(v))
		if err != nil {
			return nil, err
		}
		out[v] = index[k]
	}
	return out, nil
}

// ProfileOnlyGrowing is ProfileOnly under the paper's time-gap threat
// model: exactAttrs must be equal, growAttrs may only have grown
// (auxiliary >= target). This is the attribute-only attack on equal
// footing with DeHIN's growth-tolerant matchers - exactly DeHIN at
// distance 0.
func ProfileOnlyGrowing(target, aux *hin.Graph, exactAttrs, growAttrs []int) ([][]hin.EntityID, error) {
	for _, ai := range append(append([]int(nil), exactAttrs...), growAttrs...) {
		if ai < 0 {
			return nil, fmt.Errorf("baseline: negative attribute index %d", ai)
		}
	}
	// Validate attribute indices up front (on the first entities), then
	// fan the scan out across targets - it is a pure read.
	if target.NumEntities() > 0 && aux.NumEntities() > 0 {
		for _, ai := range append(append([]int(nil), exactAttrs...), growAttrs...) {
			if ai >= target.NumAttrs(0) || ai >= aux.NumAttrs(0) {
				return nil, fmt.Errorf("baseline: attr %d out of range", ai)
			}
		}
	}
	out := make([][]hin.EntityID, target.NumEntities())
	par.Run(0, target.NumEntities(), func(_, tv int) {
		for av := 0; av < aux.NumEntities(); av++ {
			ok := true
			for _, ai := range exactAttrs {
				if target.Attr(hin.EntityID(tv), ai) != aux.Attr(hin.EntityID(av), ai) {
					ok = false
					break
				}
			}
			if ok {
				for _, ai := range growAttrs {
					if aux.Attr(hin.EntityID(av), ai) < target.Attr(hin.EntityID(tv), ai) {
						ok = false
						break
					}
				}
			}
			if ok {
				out[tv] = append(out[tv], hin.EntityID(av))
			}
		}
	})
	return out, nil
}

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
	mapped := make([]bool, an) // auxiliary side, to keep the mapping injective
	for i := range mapping {
		mapping[i] = hin.NoEntity
	}
	for tv, av := range cfg.Seeds {
		if int(tv) >= tn || int(av) >= an || tv < 0 || av < 0 {
			return nil, fmt.Errorf("baseline: seed (%d,%d) out of range", tv, av)
		}
		mapping[tv] = av
		mapped[av] = true
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
					if mapped[ab] {
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
			if !reverseAgrees(tv, best, mapping, mapped, tAdj, aAdj, cfg.Theta) {
				continue
			}
			mapping[tv] = best
			mapped[best] = true
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
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
		adj[v] = dedupSorted(adj[v])
	}
	return adj
}

func dedupSorted(s []hin.EntityID) []hin.EntityID {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
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
func reverseAgrees(tv int, av hin.EntityID, mapping []hin.EntityID, mapped []bool, tAdj, aAdj [][]hin.EntityID, theta float64) bool {
	inv := make(map[hin.EntityID]hin.EntityID, len(mapping))
	for t, a := range mapping {
		if a != hin.NoEntity {
			inv[a] = hin.EntityID(t)
		}
	}
	scores := make(map[hin.EntityID]float64)
	for _, ab := range aAdj[av] {
		tm, ok := inv[ab]
		if !ok {
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
