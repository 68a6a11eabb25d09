package hin

import (
	"fmt"
	"sort"
	"sync"
)

// Edge is one directed link: the destination entity and the link's integer
// strength (1 for unweighted link types).
type Edge struct {
	To EntityID
	W  int32
}

// csr is a compressed sparse-row adjacency for one link type. Row v spans
// to[off[v]:off[v+1]] (destinations, sorted ascending) and the parallel
// weight slice w.
type csr struct {
	off []int64
	to  []EntityID
	w   []int32
}

func (c *csr) row(v EntityID) ([]EntityID, []int32) {
	lo, hi := c.off[v], c.off[v+1]
	return c.to[lo:hi], c.w[lo:hi]
}

// setCol stores one multi-valued int32 attribute for every entity: entity
// v's values (sorted ascending) are data[off[v]:off[v+1]].
type setCol struct {
	off  []int64
	data []int32
}

// Graph is an immutable heterogeneous information network instance: typed
// entities with scalar and set attributes, and per-link-type weighted
// adjacency, read by source (out-rows) and by destination (in-rows).
// Construct one with a Builder from an edge stream; the transforms that
// keep every entity of an existing graph and rewrite only its edges each
// have their own constructor: WithOutRows takes arbitrary rows,
// WithoutStrength drops one strength per link type, and Complete builds
// complete link types from their strengths.
//
// Builder.Build transposes the out-rows into in-rows as it builds; the
// other constructors write out-rows only, and the graph transposes them,
// once and race-free, on its first in-edge read.
type Graph struct {
	schema *Schema
	n      int
	etype  []EntityTypeID
	label  []string

	attrOff  []int64 // len n+1; entity v's attrs are attrData[attrOff[v]:attrOff[v+1]]
	attrData []int64

	sets map[string]*setCol

	fwd     []csr // indexed by LinkTypeID
	rev     []csr // read through inRows, which fills it unless Build has
	revOnce sync.Once
}

// Schema returns the schema the graph was built against.
func (g *Graph) Schema() *Schema { return g.schema }

// NumEntities returns the number of entities.
func (g *Graph) NumEntities() int { return g.n }

// NumEdges returns the number of edges of link type lt.
func (g *Graph) NumEdges(lt LinkTypeID) int64 { return int64(len(g.fwd[lt].to)) }

// NumEdgesTotal returns the number of edges across all link types.
func (g *Graph) NumEdgesTotal() int64 {
	var total int64
	for i := range g.fwd {
		total += int64(len(g.fwd[i].to))
	}
	return total
}

// EntityType returns the type of entity v.
func (g *Graph) EntityType(v EntityID) EntityTypeID { return g.etype[v] }

// Label returns the external identifier of entity v (for t.qq users, the
// user-ID string). Labels are carried through sampling and anonymization
// ground-truth maps but are never consulted by the attack itself.
func (g *Graph) Label(v EntityID) string { return g.label[v] }

// NumAttrs returns how many scalar attributes entity v carries.
func (g *Graph) NumAttrs(v EntityID) int {
	return int(g.attrOff[v+1] - g.attrOff[v])
}

// Attr returns the i-th scalar attribute of entity v, positionally per the
// entity's type declaration.
func (g *Graph) Attr(v EntityID, i int) int64 {
	return g.attrData[g.attrOff[v]+int64(i)]
}

// Attrs returns a read-only view of all scalar attributes of entity v.
func (g *Graph) Attrs(v EntityID) []int64 {
	return g.attrData[g.attrOff[v]:g.attrOff[v+1]]
}

// Set returns the sorted values of the named multi-valued attribute of
// entity v, or nil if the entity has none.
func (g *Graph) Set(name string, v EntityID) []int32 {
	col, ok := g.sets[name]
	if !ok {
		return nil
	}
	return col.data[col.off[v]:col.off[v+1]]
}

// SetNames returns the names of the graph's set columns, ascending.
func (g *Graph) SetNames() []string {
	names := make([]string, 0, len(g.sets))
	for name := range g.sets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// OutDegree returns the number of out-edges of v via link type lt.
func (g *Graph) OutDegree(lt LinkTypeID, v EntityID) int {
	c := &g.fwd[lt]
	return int(c.off[v+1] - c.off[v])
}

// InDegree returns the number of in-edges of v via link type lt.
func (g *Graph) InDegree(lt LinkTypeID, v EntityID) int {
	c := g.inRows(lt)
	return int(c.off[v+1] - c.off[v])
}

// OutDegrees appends the out-degree of every entity via link type lt to
// dst and returns the extended slice. One sequential pass over the CSR
// offsets; meant for bulk consumers such as degree-signature indexes and
// load-balanced work scheduling, where per-entity OutDegree calls would
// pay n bounds checks.
func (g *Graph) OutDegrees(lt LinkTypeID, dst []int32) []int32 {
	return degreesFromOffsets(g.fwd[lt].off, dst)
}

// InDegrees is OutDegrees over the reverse adjacency.
func (g *Graph) InDegrees(lt LinkTypeID, dst []int32) []int32 {
	return degreesFromOffsets(g.inRows(lt).off, dst)
}

func degreesFromOffsets(off []int64, dst []int32) []int32 {
	for v := 0; v+1 < len(off); v++ {
		dst = append(dst, int32(off[v+1]-off[v]))
	}
	return dst
}

// OutEdges returns zero-copy views of v's out-neighbors via lt (sorted
// ascending by destination) and the parallel strengths.
func (g *Graph) OutEdges(lt LinkTypeID, v EntityID) ([]EntityID, []int32) {
	return g.fwd[lt].row(v)
}

// InEdges returns zero-copy views of v's in-neighbors via lt (sorted
// ascending by source) and the parallel strengths.
func (g *Graph) InEdges(lt LinkTypeID, v EntityID) ([]EntityID, []int32) {
	return g.inRows(lt).row(v)
}

// inRows returns the reverse rows of link type lt, the one way in-rows are
// read. Unless the constructor built them, the first call transposes every
// link type's out-rows, and concurrent first calls wait for it.
func (g *Graph) inRows(lt LinkTypeID) *csr {
	g.revOnce.Do(g.transposeAll)
	return &g.rev[lt]
}

// transposeAll fills rev with the transposition of every link type's
// out-rows, unless Builder.Build already has.
func (g *Graph) transposeAll() {
	if g.rev != nil {
		return
	}
	rev := make([]csr, len(g.fwd))
	for lt := range g.fwd {
		rev[lt] = transpose(g.n, &g.fwd[lt])
	}
	g.rev = rev
}

// FindEdge looks up the edge from -> to of link type lt, returning its
// strength and whether it exists.
func (g *Graph) FindEdge(lt LinkTypeID, from, to EntityID) (int32, bool) {
	tos, ws := g.fwd[lt].row(from)
	i := sort.Search(len(tos), func(i int) bool { return tos[i] >= to })
	if i < len(tos) && tos[i] == to {
		return ws[i], true
	}
	return 0, false
}

// EntitiesOfType returns the ids of all entities with type t, ascending.
func (g *Graph) EntitiesOfType(t EntityTypeID) []EntityID {
	var out []EntityID
	for v := 0; v < g.n; v++ {
		if g.etype[v] == t {
			out = append(out, EntityID(v))
		}
	}
	return out
}

// Induced returns the subgraph induced by the given entities: the entities
// keep their types, labels and attributes, and every edge whose endpoints
// are both in vs survives. The second result maps each new entity id to its
// id in g. Duplicate ids in vs are an error.
//
// Because vs fixes the new id order, passing a permutation of all entities
// relabels the graph - which is how ID randomization is implemented.
func (g *Graph) Induced(vs []EntityID) (*Graph, []EntityID, error) {
	remap := make(map[EntityID]EntityID, len(vs))
	for i, v := range vs {
		if v < 0 || int(v) >= g.n {
			return nil, nil, fmt.Errorf("hin: induced subgraph entity %d out of range", v)
		}
		if _, dup := remap[v]; dup {
			return nil, nil, fmt.Errorf("hin: duplicate entity %d in induced subgraph", v)
		}
		remap[v] = EntityID(i)
	}
	b := NewBuilder(g.schema)
	for _, v := range vs {
		b.AddEntity(g.etype[v], g.label[v], g.Attrs(v)...)
	}
	for name := range g.sets {
		for i, v := range vs {
			if s := g.Set(name, v); len(s) > 0 {
				b.SetSet(name, EntityID(i), s)
			}
		}
	}
	for lt := range g.fwd {
		ltid := LinkTypeID(lt)
		for _, v := range vs {
			nv := remap[v]
			tos, ws := g.OutEdges(ltid, v)
			for j, to := range tos {
				nt, in := remap[to]
				if !in {
					continue
				}
				if err := b.AddEdge(ltid, nv, nt, ws[j]); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	orig := append([]EntityID(nil), vs...)
	return sub, orig, nil
}
