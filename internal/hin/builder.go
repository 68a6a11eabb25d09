package hin

import (
	"fmt"
	"slices"

	"github.com/hinpriv/dehin/internal/par"
)

// Builder accumulates entities and edges and freezes them into an immutable
// Graph. A Builder is single-use: after Build it must not be reused.
//
// Entity-shape mistakes (unknown type, wrong attribute count) are
// programmer errors and panic; edge mistakes (bad endpoints, violated
// self-loop rule) are data-dependent and returned as errors.
type Builder struct {
	schema *Schema
	etype  []EntityTypeID
	labels []string

	attrOff  []int64
	attrData []int64

	sets map[string][][]int32 // per set name, entity v's sorted values at [v]

	links [][][]Link // per link type, the batches AddLinks was handed
	own   [][]Link   // per link type, the batch AddEdge appends to; Build adds it to links

	built bool
}

// Link is one directed edge handed to a Builder: its endpoints and its
// strength (1 on unweighted link types).
type Link struct {
	From, To EntityID
	W        int32
}

// parallelBuildLinks is the edge count from which Build builds its link
// types on a worker pool. Smaller graphs, such as hinriskd's per-request
// snippets and the sampled 500-user releases, build on the caller's
// goroutine: their builds are short, and a server building many at once
// has no idle core for a pool per build to use.
const parallelBuildLinks = 1 << 16

// NewBuilder returns a Builder for the given schema.
func NewBuilder(schema *Schema) *Builder {
	return &Builder{
		schema:  schema,
		attrOff: []int64{0},
		sets:    make(map[string][][]int32),
		links:   make([][][]Link, schema.NumLinkTypes()),
		own:     make([][]Link, schema.NumLinkTypes()),
	}
}

// NumEntities returns how many entities have been added so far.
func (b *Builder) NumEntities() int { return len(b.etype) }

// AddEntity appends an entity of type t with the given label and scalar
// attribute values (positional, matching the type declaration) and returns
// its id. It panics if t is out of range or the attribute count is wrong.
func (b *Builder) AddEntity(t EntityTypeID, label string, attrs ...int64) EntityID {
	if int(t) >= b.schema.NumEntityTypes() {
		panic(fmt.Sprintf("hin: AddEntity with unknown entity type %d", t))
	}
	decl := b.schema.EntityType(t)
	if len(attrs) != len(decl.Attrs) {
		panic(fmt.Sprintf("hin: entity type %q takes %d attrs, got %d",
			decl.Name, len(decl.Attrs), len(attrs)))
	}
	id := EntityID(len(b.etype))
	b.etype = append(b.etype, t)
	b.labels = append(b.labels, label)
	b.attrData = append(b.attrData, attrs...)
	b.attrOff = append(b.attrOff, int64(len(b.attrData)))
	return id
}

// SetSet assigns the named multi-valued attribute of entity v. The entity's
// type must declare the set attribute. Values are copied and sorted; a nil
// or empty slice clears the set.
func (b *Builder) SetSet(name string, v EntityID, vals []int32) {
	slot := b.setSlot(name, v)
	if len(vals) == 0 {
		*slot = nil
		return
	}
	cp := slices.Clone(vals)
	slices.Sort(cp)
	*slot = cp
}

// AdoptSet assigns the named multi-valued attribute of entity v, as SetSet
// does, from values the caller has already sorted ascending; values that
// do not ascend are a programmer error and panic. The set is kept as it
// is, not copied: the caller hands the slice over and must not modify it
// afterwards.
func (b *Builder) AdoptSet(name string, v EntityID, vals []int32) {
	slot := b.setSlot(name, v)
	if !slices.IsSorted(vals) {
		panic(fmt.Sprintf("hin: AdoptSet of set attribute %q on entity %d with values out of order", name, v))
	}
	*slot = vals
}

// setSlot returns where entity v's values of the named set attribute go,
// panicking unless v exists and its type declares the attribute.
func (b *Builder) setSlot(name string, v EntityID) *[]int32 {
	if v < 0 || int(v) >= len(b.etype) {
		panic(fmt.Sprintf("hin: set attribute %q on unknown entity %d", name, v))
	}
	if b.schema.SetAttrIndex(b.etype[v], name) < 0 {
		panic(fmt.Sprintf("hin: entity type %q has no set attribute %q",
			b.schema.EntityType(b.etype[v]).Name, name))
	}
	col := b.sets[name]
	if len(col) <= int(v) {
		// Grow to capacity, so that adding entities and sets in turn
		// stores the column once per doubling, not once per entity.
		col = slices.Grow(col, len(b.etype)-len(col))
		col = col[:cap(col)]
		b.sets[name] = col
	}
	return &col[v]
}

// AddEdge appends a directed edge of link type lt from -> to with strength
// w. Duplicate (lt, from, to) edges are merged at Build time by summing
// strengths. Unweighted link types require w == 1.
func (b *Builder) AddEdge(lt LinkTypeID, from, to EntityID, w int32) error {
	if int(lt) >= b.schema.NumLinkTypes() {
		return fmt.Errorf("hin: unknown link type %d", lt)
	}
	l := Link{From: from, To: to, W: w}
	if err := b.checkLink(lt, l); err != nil {
		return err
	}
	b.own[lt] = append(b.own[lt], l)
	return nil
}

// AddLinks adds a batch of directed edges of link type lt, each checked as
// AddEdge checks one and merged at Build in the same way. A batch with an
// invalid link is rejected whole, with AddEdge's error for the first such
// link, and adds nothing. An accepted batch is kept as it is, not copied:
// the caller hands the slice over and must not modify it afterwards.
func (b *Builder) AddLinks(lt LinkTypeID, links []Link) error {
	if int(lt) >= b.schema.NumLinkTypes() {
		return fmt.Errorf("hin: unknown link type %d", lt)
	}
	for _, l := range links {
		if err := b.checkLink(lt, l); err != nil {
			return err
		}
	}
	if len(links) > 0 {
		b.links[lt] = append(b.links[lt], links)
	}
	return nil
}

// checkLink validates one edge of a known link type against the entities
// added so far.
func (b *Builder) checkLink(lt LinkTypeID, l Link) error {
	if l.From < 0 || int(l.From) >= len(b.etype) {
		return fmt.Errorf("hin: edge source %d out of range", l.From)
	}
	if l.To < 0 || int(l.To) >= len(b.etype) {
		return fmt.Errorf("hin: edge destination %d out of range", l.To)
	}
	return b.schema.checkEdge(lt, b.etype[l.From], b.etype[l.To], l.From, l.To, l.W)
}

// Build freezes the accumulated entities and edges into a Graph. Duplicate
// edges of the same link type are merged by summing strengths (unweighted
// duplicates collapse to a single strength-1 edge). Unlike the other
// constructors, Build also transposes each link type into in-rows, in the
// same task: its graphs are the ones persisted, in both directions.
//
// Each link type is built on its own, so from parallelBuildLinks edges on
// they are built on a pool of GOMAXPROCS workers, one link type per task;
// the builder drops a link type's batches as its task starts, so they can
// be collected once its rows are packed. The graph does not depend on the
// pool, and when several link types fail, the error is the lowest link
// type's.
func (b *Builder) Build() (*Graph, error) {
	if b.built {
		return nil, fmt.Errorf("hin: Builder already built")
	}
	b.built = true
	n := len(b.etype)
	nlt := b.schema.NumLinkTypes()
	g := &Graph{
		schema:   b.schema,
		n:        n,
		etype:    b.etype,
		label:    b.labels,
		attrOff:  b.attrOff,
		attrData: b.attrData,
		sets:     make(map[string]*setCol, len(b.sets)),
		fwd:      make([]csr, nlt),
		rev:      make([]csr, nlt),
	}
	for name, vals := range b.sets {
		col := &setCol{off: make([]int64, n+1)}
		for v := range n {
			if v < len(vals) {
				//hin:allow determinism -- each column is rebuilt per set name in ascending entity order; the order b.sets is visited never reaches col.data
				col.data = append(col.data, vals[v]...)
			}
			col.off[v+1] = int64(len(col.data))
		}
		g.sets[name] = col
	}
	total := 0
	for lt := range nlt {
		b.links[lt] = append(b.links[lt], b.own[lt])
		b.own[lt] = nil
		for _, batch := range b.links[lt] {
			total += len(batch)
		}
	}
	workers := 0
	if total < parallelBuildLinks {
		workers = 1
	}
	var first par.FirstErr
	par.Run(workers, nlt, func(_, lt int) {
		collapse := !b.schema.LinkType(LinkTypeID(lt)).Weighted
		batches := b.links[lt]
		b.links[lt] = nil // the batches die once buildCSR has packed them
		fwd, err := buildCSR(n, batches, collapse)
		if err != nil {
			first.Set(lt, err)
			return
		}
		g.fwd[lt] = fwd
		g.rev[lt] = transpose(n, &fwd)
	})
	if err := first.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

// buildCSR assembles a CSR adjacency over n entities from batches of edges,
// sorting each row and merging duplicate destinations by summing weights.
// If collapse is true, merged weights are clamped to 1 (unweighted links).
func buildCSR(n int, batches [][]Link, collapse bool) (csr, error) {
	off := make([]int64, n+1)
	m := 0
	for _, batch := range batches {
		for _, l := range batch {
			off[l.From+1]++
		}
		m += len(batch)
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	// Each edge packs into one key, destination above strength:
	// destinations are >= 0 and strengths >= 1, so key order is
	// destination order and equal destinations sit next to each other.
	keys := make([]uint64, m)
	next := slices.Clone(off[:n])
	for _, batch := range batches {
		for _, l := range batch {
			keys[next[l.From]] = uint64(l.To)<<32 | uint64(uint32(l.W))
			next[l.From]++
		}
	}
	outTo := make([]EntityID, 0, m)
	outW := make([]int32, 0, m)
	newOff := make([]int64, n+1)
	for v := 0; v < n; v++ {
		row := keys[off[v]:off[v+1]]
		slices.Sort(row)
		for i := 0; i < len(row); {
			dst := row[i] >> 32
			sum := int64(0)
			for ; i < len(row) && row[i]>>32 == dst; i++ {
				sum += int64(uint32(row[i]))
			}
			if collapse {
				sum = 1
			}
			if sum > int64(maxInt32) {
				return csr{}, fmt.Errorf("hin: merged edge strength overflows int32 at entity %d", v)
			}
			outTo = append(outTo, EntityID(dst))
			outW = append(outW, int32(sum))
		}
		newOff[v+1] = int64(len(outTo))
	}
	return csr{off: newOff, to: outTo, w: outW}, nil
}

const maxInt32 = 1<<31 - 1
