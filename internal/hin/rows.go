package hin

import "fmt"

// Rows is the forward adjacency of one link type in CSR form: row v is
// To[Off[v]:Off[v+1]] (destinations, strictly ascending) with the
// parallel strengths W.
type Rows struct {
	Off []int64
	To  []EntityID
	W   []int32
}

// WithOutRows returns a graph with src's entities - types, labels, scalar
// attributes and set attributes - and rows[lt] as the forward adjacency of
// link type lt. It is the constructor for transforms that keep every
// entity and rewrite edges into arbitrary rows (bucketing strengths);
// Builder is for graphs assembled from an edge stream, WithoutStrength
// for dropping a strength and Complete for completed link types.
//
// The rows must be in final form: Off has length n+1, starts at 0, does
// not decrease and ends at len(To) == len(W); every destination is in
// range and the destinations of a row strictly ascend, so there are no
// duplicate edges to merge; endpoint types match the link type; self-loops
// appear only where the link type allows them; and strengths are positive,
// and 1 on unweighted link types. A violation is returned as an error.
//
// The graph takes ownership of the rows' slices, which the caller must not
// modify afterwards, and builds its in-rows from them on the first in-edge
// read (see Graph). A *Graph source shares its immutable entity columns
// with the result; any other backend's entity columns are copied once,
// keeping the set attributes declared by the schema that hold a value.
func WithOutRows(src GraphBackend, rows []Rows) (*Graph, error) {
	schema := src.Schema()
	if len(rows) != schema.NumLinkTypes() {
		return nil, fmt.Errorf("hin: %d adjacency rows for %d link types", len(rows), schema.NumLinkTypes())
	}
	g := withEntities(src)
	g.fwd = make([]csr, len(rows))
	for lt, r := range rows {
		c := csr{off: r.Off, to: r.To, w: r.W}
		if err := g.checkRows(LinkTypeID(lt), &c); err != nil {
			return nil, err
		}
		g.fwd[lt] = c
	}
	return g, nil
}

// WithoutStrength returns src without, per link type lt, the edges of
// strength drop[lt]; a drop of 0, which no edge carries, keeps the link
// type whole. dropped[lt] must be the number of lt edges that carry
// drop[lt]: it sizes the kept rows, so every out-edge is read once, and a
// count the rows contradict is an error. The entities come from src as in
// WithOutRows: a *Graph source shares its columns.
//
// Like WithOutRows, the result writes out-rows only and builds its in-rows
// on the first in-edge read. Unlike it, the filter does not check: what a
// filter keeps of a valid row is valid, and of a sorted row sorted.
func WithoutStrength(src GraphBackend, drop []int32, dropped []int64) (*Graph, error) {
	nlt := src.Schema().NumLinkTypes()
	if len(drop) != nlt || len(dropped) != nlt {
		return nil, fmt.Errorf("hin: %d dropped strengths and %d counts for %d link types", len(drop), len(dropped), nlt)
	}
	g := withEntities(src)
	g.fwd = make([]csr, nlt)
	buf := &EdgeBuf{}
	for lt, w := range drop {
		ltid := LinkTypeID(lt)
		kept := src.NumEdges(ltid) - dropped[lt]
		fwd := filterRows(src, buf, ltid, w, max(kept, 0))
		if int64(len(fwd.to)) != kept {
			return nil, fmt.Errorf("hin: link %q: %d edges of strength %d counted, %d found",
				src.Schema().LinkType(ltid).Name, dropped[lt], w, src.NumEdges(ltid)-int64(len(fwd.to)))
		}
		g.fwd[lt] = fwd
	}
	return g, nil
}

// Complete returns a graph with src's entities (as in WithOutRows) in which
// every link type is complete: u has an edge to every v ≠ u, ascending, and
// to itself too where the link type allows self-loops. strengths[lt] holds
// link type lt's strengths row by row, n−1 per entity (n with self-loops);
// the graph takes ownership of them.
//
// Complete writes the destinations itself, so it checks only what the
// caller supplies: a matrix of the right length per link type, strengths
// that are positive, and 1 on an unweighted type, and entities of the link
// type's endpoint type (once per entity, not per edge). A violation is an
// error. Link types with the same self-loop setting share one offset and
// one destination array. Like WithOutRows, Complete writes out-rows only,
// and the graph builds its in-rows on the first in-edge read.
func Complete(src GraphBackend, strengths [][]int32) (*Graph, error) {
	schema := src.Schema()
	if len(strengths) != schema.NumLinkTypes() {
		return nil, fmt.Errorf("hin: %d strength matrices for %d link types", len(strengths), schema.NumLinkTypes())
	}
	g := withEntities(src)
	g.fwd = make([]csr, len(strengths))
	var dests [2]csr // offsets and destinations, without and with self-loops
	for lt, w := range strengths {
		ltid := LinkTypeID(lt)
		self := schema.LinkType(ltid).AllowSelf
		if err := g.checkComplete(ltid, w); err != nil {
			return nil, err
		}
		d := &dests[0]
		if self {
			d = &dests[1]
		}
		if d.off == nil {
			d.off, d.to = completeRows(g.n, self)
		}
		g.fwd[lt] = csr{off: d.off, to: d.to, w: w}
	}
	return g, nil
}

// completeWidth is the row length of a complete link type over n entities.
func completeWidth(n int, self bool) int {
	if self || n == 0 {
		return n
	}
	return n - 1
}

// completeRows returns the offsets and destinations of a complete link
// type over n entities.
func completeRows(n int, self bool) ([]int64, []EntityID) {
	m := completeWidth(n, self)
	off := make([]int64, n+1)
	to := make([]EntityID, 0, n*m)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if v != u || self {
				to = append(to, EntityID(v))
			}
		}
		off[u+1] = int64(len(to))
	}
	return off, to
}

// filterRows copies src's out-rows of link type lt without the edges of
// strength drop, into rows sized for kept edges.
func filterRows(src GraphBackend, buf *EdgeBuf, lt LinkTypeID, drop int32, kept int64) csr {
	n := src.NumEntities()
	c := csr{off: make([]int64, n+1), to: make([]EntityID, 0, kept), w: make([]int32, 0, kept)}
	for v := 0; v < n; v++ {
		tos, ws := src.OutEdgesBuf(buf, lt, EntityID(v))
		for j, w := range ws {
			if w != drop {
				c.to = append(c.to, tos[j])
				c.w = append(c.w, w)
			}
		}
		c.off[v+1] = int64(len(c.to))
	}
	return c
}

// withEntities returns a Graph with src's entities and no adjacency yet. A
// *Graph source shares its immutable entity columns with it; any other
// backend's are copied.
func withEntities(src GraphBackend) *Graph {
	sg, ok := src.(*Graph)
	if !ok {
		return copyEntities(src)
	}
	return &Graph{
		schema:   sg.schema,
		n:        sg.n,
		etype:    sg.etype,
		label:    sg.label,
		attrOff:  sg.attrOff,
		attrData: sg.attrData,
		sets:     sg.sets,
	}
}

// copyEntities copies the entity columns of any backend into a Graph with
// no adjacency yet.
func copyEntities(src GraphBackend) *Graph {
	schema := src.Schema()
	n := src.NumEntities()
	g := &Graph{
		schema:  schema,
		n:       n,
		etype:   make([]EntityTypeID, n),
		label:   make([]string, n),
		attrOff: make([]int64, n+1),
		sets:    make(map[string]*setCol),
	}
	for v := 0; v < n; v++ {
		id := EntityID(v)
		g.etype[v] = src.EntityType(id)
		g.label[v] = src.Label(id)
		g.attrData = src.AppendAttrs(g.attrData, id)
		g.attrOff[v+1] = int64(len(g.attrData))
	}
	for t := 0; t < schema.NumEntityTypes(); t++ {
		for _, name := range schema.EntityType(EntityTypeID(t)).SetAttrs {
			if _, done := g.sets[name]; done {
				continue
			}
			col := &setCol{off: make([]int64, n+1)}
			for v := 0; v < n; v++ {
				if schema.SetAttrIndex(g.etype[v], name) >= 0 {
					col.data = append(col.data, src.Set(name, EntityID(v))...)
				}
				col.off[v+1] = int64(len(col.data))
			}
			if len(col.data) > 0 {
				g.sets[name] = col
			}
		}
	}
	return g
}

// checkRows validates one link type's forward rows against g's entities:
// the row rules here, the per-edge rules in Schema.checkEdge (WithOutRows
// lists both).
func (g *Graph) checkRows(lt LinkTypeID, c *csr) error {
	name := g.schema.LinkType(lt).Name
	n := g.n
	if len(c.off) != n+1 || c.off[0] != 0 {
		return fmt.Errorf("hin: link %q: row offsets must have length %d and start at 0", name, n+1)
	}
	if len(c.to) != len(c.w) || c.off[n] != int64(len(c.to)) {
		return fmt.Errorf("hin: link %q: row offsets end at %d for %d destinations and %d strengths",
			name, c.off[n], len(c.to), len(c.w))
	}
	for v := 0; v < n; v++ {
		lo, hi := c.off[v], c.off[v+1]
		if hi < lo || hi > c.off[n] {
			return fmt.Errorf("hin: link %q: row offsets decrease after entity %d", name, v)
		}
		prev := EntityID(-1)
		for i := lo; i < hi; i++ {
			to := c.to[i]
			if to < 0 || int(to) >= n {
				return fmt.Errorf("hin: link %q: destination %d of entity %d out of range", name, to, v)
			}
			if to <= prev {
				return fmt.Errorf("hin: link %q: row of entity %d is not strictly ascending at %d", name, v, to)
			}
			if err := g.schema.checkEdge(lt, g.etype[v], g.etype[to], EntityID(v), to, c.w[i]); err != nil {
				return err
			}
			prev = to
		}
	}
	return nil
}

// checkComplete validates link type lt's strength matrix w against g's
// entities (Complete lists the rules). WithOutRows' per-edge endpoint rule
// reduces here to one type check per entity, since every entity is both a
// source and a destination once rows have edges.
func (g *Graph) checkComplete(lt LinkTypeID, w []int32) error {
	decl := g.schema.LinkType(lt)
	m := completeWidth(g.n, decl.AllowSelf)
	if len(w) != g.n*m {
		return fmt.Errorf("hin: link %q: %d strengths for %d entities, want %d", decl.Name, len(w), g.n, g.n*m)
	}
	if m > 0 {
		ends := g.schema.linkEnds[lt]
		for v, t := range g.etype {
			if t != ends[0] || t != ends[1] {
				return fmt.Errorf("hin: link %q joins %q to %q, entity %d has %q",
					decl.Name, decl.From, decl.To, v, g.schema.entityTypes[t].Name)
			}
		}
	}
	weighted := decl.Weighted
	for i, s := range w {
		if s > 0 && (weighted || s == 1) {
			continue
		}
		u, v := i/m, i%m
		if !decl.AllowSelf && v >= u {
			v++
		}
		if s <= 0 {
			return fmt.Errorf("hin: link %q: edge %d -> %d: strength must be positive, got %d", decl.Name, u, v, s)
		}
		return fmt.Errorf("hin: unweighted link %q requires strength 1, got %d (edge %d -> %d)", decl.Name, s, u, v)
	}
	return nil
}

// transpose returns the reverse adjacency of c over n entities. Sources
// are visited in ascending order, so every reverse row comes out ascending
// and, since c has no duplicate edges, duplicate-free.
func transpose(n int, c *csr) csr {
	off := make([]int64, n+1)
	for _, to := range c.to {
		off[to+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	next := make([]int64, n)
	copy(next, off[:n])
	to := make([]EntityID, len(c.to))
	w := make([]int32, len(c.w))
	for v := 0; v < n; v++ {
		for i := c.off[v]; i < c.off[v+1]; i++ {
			d := c.to[i]
			p := next[d]
			next[d]++
			to[p] = EntityID(v)
			w[p] = c.w[i]
		}
	}
	return csr{off: off, to: to, w: w}
}
