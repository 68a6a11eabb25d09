package anonymize

import (
	"fmt"
	"sort"

	"github.com/hinpriv/dehin/internal/hin"
)

// GeneralizeStrengths anonymizes g against neighborhood attacks (Zhou-Pei
// style) by generalization rather than fabrication: link strengths are
// coarsened into buckets of width 2^r, doubling r until every entity's
// distance-1 neighborhood signature (the multiset of (link type, bucketed
// strength, out-degree-class) features an adversary could match on) occurs
// at least k times, or strengths have been fully generalized (width
// swallowing StrengthMax, i.e. all weighted edges indistinguishable).
//
// It returns the anonymized graph, the bucket width reached, and whether
// k-anonymity of neighborhood signatures was actually achieved - full
// generalization does not guarantee it, since degrees alone can still
// single entities out.
func GeneralizeStrengths(g *hin.Graph, k int, strengthMax int) (*hin.Graph, int, bool, error) {
	if k < 1 {
		return nil, 0, false, fmt.Errorf("anonymize: k must be >= 1, got %d", k)
	}
	if strengthMax < 1 {
		return nil, 0, false, fmt.Errorf("anonymize: strengthMax must be >= 1")
	}
	for width := 1; ; width *= 2 {
		ag, err := bucketStrengths(g, width)
		if err != nil {
			return nil, 0, false, err
		}
		if level := neighborhoodAnonymityLevel(ag); level >= k {
			return ag, width, true, nil
		}
		if width > strengthMax {
			return ag, width, false, nil
		}
	}
}

// bucketStrengths returns a copy of g with every weighted strength w
// replaced by its bucket floor ((w-1)/width*width + 1), so width 1 is the
// identity.
func bucketStrengths(g *hin.Graph, width int) (*hin.Graph, error) {
	schema := g.Schema()
	n := g.NumEntities()
	rows := make([]hin.Rows, schema.NumLinkTypes())
	for lt := range rows {
		ltid := hin.LinkTypeID(lt)
		weighted := schema.LinkType(ltid).Weighted
		m := g.NumEdges(ltid)
		r := hin.Rows{
			Off: make([]int64, n+1),
			To:  make([]hin.EntityID, 0, m),
			W:   make([]int32, 0, m),
		}
		for v := 0; v < n; v++ {
			tos, ws := g.OutEdges(ltid, hin.EntityID(v))
			r.To = append(r.To, tos...)
			for _, w := range ws {
				if weighted && width > 1 {
					w = (w-1)/int32(width)*int32(width) + 1
				}
				r.W = append(r.W, w)
			}
			r.Off[v+1] = int64(len(r.To))
		}
		rows[lt] = r
	}
	return hin.WithOutRows(g, rows)
}

// neighborhoodAnonymityLevel returns the size of the smallest equivalence
// class of distance-1 neighborhood signatures: the multiset, per link
// type, of outgoing strengths (destination identities excluded - the
// adversary of the neighborhood attack knows the neighborhood's shape, not
// its anonymized ids).
func neighborhoodAnonymityLevel(g *hin.Graph) int {
	counts := make(map[string]int)
	var buf []byte
	for v := 0; v < g.NumEntities(); v++ {
		buf = buf[:0]
		for lt := 0; lt < g.Schema().NumLinkTypes(); lt++ {
			_, ws := g.OutEdges(hin.LinkTypeID(lt), hin.EntityID(v))
			sorted := append([]int32(nil), ws...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			buf = append(buf, byte(lt), '[')
			for _, w := range sorted {
				buf = appendInt32(buf, w)
				buf = append(buf, ',')
			}
			buf = append(buf, ']')
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

func appendInt32(b []byte, v int32) []byte {
	if v == 0 {
		return append(b, '0')
	}
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [12]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}
