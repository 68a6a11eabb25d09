package hin

import (
	"fmt"
	"math"
	"sort"
)

// Density computes the paper's Equation 4 for a graph whose link types all
// connect the same single entity type (a target network schema instance):
//
//	density = |E| / (m|V|^2 + (|L|-m)|V|(|V|-1))
//
// where m is the number of link types that allow self-loops. It returns an
// error if the graph has fewer than two entities or any link type spans
// different entity types.
func Density(g GraphBackend) (float64, error) {
	n := int64(g.NumEntities())
	if n < 2 {
		return 0, fmt.Errorf("hin: density undefined for %d entities", n)
	}
	s := g.Schema()
	var m, l int64
	for i := 0; i < s.NumLinkTypes(); i++ {
		lt := s.LinkType(LinkTypeID(i))
		if lt.From != lt.To {
			return 0, fmt.Errorf("hin: density requires same-typed link endpoints, %q is %s->%s",
				lt.Name, lt.From, lt.To)
		}
		l++
		if lt.AllowSelf {
			m++
		}
	}
	if l == 0 {
		return 0, fmt.Errorf("hin: density undefined without link types")
	}
	den := m*n*n + (l-m)*n*(n-1)
	return float64(g.NumEdgesTotal()) / float64(den), nil
}

// MaxEdges returns the Equation 4 denominator for a graph with n entities
// and the given link types: the maximum possible number of edges.
func MaxEdges(s *Schema, n int) int64 {
	nn := int64(n)
	var m, l int64
	for i := 0; i < s.NumLinkTypes(); i++ {
		l++
		if s.LinkType(LinkTypeID(i)).AllowSelf {
			m++
		}
	}
	return m*nn*nn + (l-m)*nn*(nn-1)
}

// DegreeStats summarizes an out-degree distribution.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// P50, P90, P99 are the 50th/90th/99th percentile degrees.
	P50, P90, P99 int
}

// OutDegreeStats computes degree statistics for link type lt over entities
// of the link's source type only (other entities never carry such edges).
func OutDegreeStats(g GraphBackend, lt LinkTypeID) DegreeStats {
	src := g.Schema().LinkType(lt).From
	srcID, _ := g.Schema().EntityTypeID(src)
	var degs []int
	for v := 0; v < g.NumEntities(); v++ {
		if g.EntityType(EntityID(v)) != srcID {
			continue
		}
		degs = append(degs, g.OutDegree(lt, EntityID(v)))
	}
	if len(degs) == 0 {
		return DegreeStats{}
	}
	sort.Ints(degs)
	sum := 0
	for _, d := range degs {
		sum += d
	}
	pct := func(p float64) int {
		i := int(math.Ceil(p*float64(len(degs)))) - 1
		if i < 0 {
			i = 0
		}
		return degs[i]
	}
	return DegreeStats{
		Min:  degs[0],
		Max:  degs[len(degs)-1],
		Mean: float64(sum) / float64(len(degs)),
		P50:  pct(0.50),
		P90:  pct(0.90),
		P99:  pct(0.99),
	}
}

// AttrCardinality returns the number of distinct values attribute index i
// takes across entities of type t - the per-attribute cardinality C(A_j) of
// Theorem 2 (and the "average cardinality of gender, yob, ..." statistics
// in Section 6.1).
func AttrCardinality(g GraphBackend, t EntityTypeID, i int) int {
	seen := make(map[int64]struct{})
	for v := 0; v < g.NumEntities(); v++ {
		if g.EntityType(EntityID(v)) != t {
			continue
		}
		seen[g.Attr(EntityID(v), i)] = struct{}{}
	}
	return len(seen)
}

// SetSizeCardinality returns the number of distinct sizes of the named set
// attribute across entities of type t (the paper uses the number of tags,
// not their identities, since tag IDs are anonymized).
func SetSizeCardinality(g GraphBackend, t EntityTypeID, name string) int {
	seen := make(map[int]struct{})
	for v := 0; v < g.NumEntities(); v++ {
		if g.EntityType(EntityID(v)) != t {
			continue
		}
		seen[len(g.Set(name, EntityID(v)))] = struct{}{}
	}
	return len(seen)
}

// StrengthCardinality returns the number of distinct edge strengths of link
// type lt - the homogeneous link cardinality C(L_i) of Theorem 2.
func StrengthCardinality(g GraphBackend, lt LinkTypeID) int {
	seen := make(map[int32]struct{})
	buf := &EdgeBuf{}
	for v := 0; v < g.NumEntities(); v++ {
		_, ws := g.OutEdgesBuf(buf, lt, EntityID(v))
		for _, w := range ws {
			seen[w] = struct{}{}
		}
	}
	return len(seen)
}

// denseStrengths bounds the strengths MajorityStrength counts in an array
// rather than a map; interaction counters are small, and every release the
// experiment suite strips has strengths <= 60.
const denseStrengths = 256

// strengthLanes is how many interleaved arrays MajorityStrength counts
// into. Consecutive edges of a row go to different lanes, so a run of
// equal strengths - a CGA completion is little else - increments
// independent counters instead of waiting on one.
const strengthLanes = 4

// MajorityStrength returns the most frequent edge strength of link type lt
// and its count; a tie goes to the smallest strength. The re-configured
// DeHIN of Section 6.2 removes all links carrying the network-wide majority
// strength to strip Complete Graph Anonymity's fake edges. ok is false if
// the link type has no edges.
func MajorityStrength(g GraphBackend, lt LinkTypeID) (w int32, count int64, ok bool) {
	var dense [strengthLanes][denseStrengths]int64
	sparse := make(map[int32]int64) // strengths outside [0, denseStrengths)
	buf := &EdgeBuf{}
	for v := 0; v < g.NumEntities(); v++ {
		_, ws := g.OutEdgesBuf(buf, lt, EntityID(v))
		i := 0
		for ; i+strengthLanes <= len(ws); i += strengthLanes {
			x0, x1, x2, x3 := ws[i], ws[i+1], ws[i+2], ws[i+3]
			// One test for four: the OR is in [0, 256) only if each is,
			// and then uint8 indexes the 256 counters unchecked.
			if uint32(x0|x1|x2|x3) >= denseStrengths {
				break
			}
			dense[0][uint8(x0)]++
			dense[1][uint8(x1)]++
			dense[2][uint8(x2)]++
			dense[3][uint8(x3)]++
		}
		for ; i < len(ws); i++ {
			if x := ws[i]; uint32(x) < denseStrengths {
				dense[i%strengthLanes][x]++
			} else {
				sparse[x]++
			}
		}
	}
	for x := range denseStrengths {
		var c int64
		for l := range dense {
			c += dense[l][x]
		}
		if c > count {
			w, count, ok = int32(x), c, true
		}
	}
	for x, c := range sparse {
		if c > count || (c == count && x < w) {
			w, count, ok = x, c, true
		}
	}
	return w, count, ok
}
