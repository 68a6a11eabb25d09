package hin

import (
	"fmt"
	"slices"
	"sort"
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

	sets map[string]map[EntityID][]int32

	eFrom [][]EntityID // per link type
	eTo   [][]EntityID
	eW    [][]int32

	built bool
}

// NewBuilder returns a Builder for the given schema.
func NewBuilder(schema *Schema) *Builder {
	return &Builder{
		schema:  schema,
		attrOff: []int64{0},
		sets:    make(map[string]map[EntityID][]int32),
		eFrom:   make([][]EntityID, schema.NumLinkTypes()),
		eTo:     make([][]EntityID, schema.NumLinkTypes()),
		eW:      make([][]int32, schema.NumLinkTypes()),
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
	if v < 0 || int(v) >= len(b.etype) {
		panic(fmt.Sprintf("hin: SetSet on unknown entity %d", v))
	}
	if b.schema.SetAttrIndex(b.etype[v], name) < 0 {
		panic(fmt.Sprintf("hin: entity type %q has no set attribute %q",
			b.schema.EntityType(b.etype[v]).Name, name))
	}
	col := b.sets[name]
	if col == nil {
		col = make(map[EntityID][]int32)
		b.sets[name] = col
	}
	if len(vals) == 0 {
		delete(col, v)
		return
	}
	cp := append([]int32(nil), vals...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	col[v] = cp
}

// AddEdge appends a directed edge of link type lt from -> to with strength
// w. Duplicate (lt, from, to) edges are merged at Build time by summing
// strengths. Unweighted link types require w == 1.
func (b *Builder) AddEdge(lt LinkTypeID, from, to EntityID, w int32) error {
	if int(lt) >= b.schema.NumLinkTypes() {
		return fmt.Errorf("hin: unknown link type %d", lt)
	}
	if from < 0 || int(from) >= len(b.etype) {
		return fmt.Errorf("hin: edge source %d out of range", from)
	}
	if to < 0 || int(to) >= len(b.etype) {
		return fmt.Errorf("hin: edge destination %d out of range", to)
	}
	if err := b.schema.checkEdge(lt, b.etype[from], b.etype[to], from, to, w); err != nil {
		return err
	}
	b.eFrom[lt] = append(b.eFrom[lt], from)
	b.eTo[lt] = append(b.eTo[lt], to)
	b.eW[lt] = append(b.eW[lt], w)
	return nil
}

// Build freezes the accumulated entities and edges into a Graph. Duplicate
// edges of the same link type are merged by summing strengths (unweighted
// duplicates collapse to a single strength-1 edge). The reverse adjacency
// is the transposition of the merged forward rows, as in WithOutRows.
func (b *Builder) Build() (*Graph, error) {
	if b.built {
		return nil, fmt.Errorf("hin: Builder already built")
	}
	b.built = true
	n := len(b.etype)
	g := &Graph{
		schema:   b.schema,
		n:        n,
		etype:    b.etype,
		label:    b.labels,
		attrOff:  b.attrOff,
		attrData: b.attrData,
		sets:     make(map[string]*setCol, len(b.sets)),
		fwd:      make([]csr, b.schema.NumLinkTypes()),
		rev:      make([]csr, b.schema.NumLinkTypes()),
	}
	for name, vals := range b.sets {
		col := &setCol{off: make([]int64, n+1)}
		var total int64
		for v := 0; v < n; v++ {
			total += int64(len(vals[EntityID(v)]))
			col.off[v+1] = total
		}
		col.data = make([]int32, 0, total)
		for v := 0; v < n; v++ {
			//hin:allow determinism -- each column is rebuilt per set name in ascending entity order; the order b.sets is visited never reaches col.data
			col.data = append(col.data, vals[EntityID(v)]...)
		}
		g.sets[name] = col
	}
	for lt := range b.eFrom {
		merged := !b.schema.LinkType(LinkTypeID(lt)).Weighted
		fwd, err := buildCSR(n, b.eFrom[lt], b.eTo[lt], b.eW[lt], merged)
		if err != nil {
			return nil, err
		}
		b.eFrom[lt], b.eTo[lt], b.eW[lt] = nil, nil, nil
		g.fwd[lt] = fwd
		g.rev[lt] = transpose(n, &fwd)
	}
	return g, nil
}

// buildCSR assembles a CSR adjacency from parallel edge slices, sorting
// each row and merging duplicate destinations by summing weights. If
// collapse is true, merged weights are clamped to 1 (unweighted links).
func buildCSR(n int, from, to []EntityID, w []int32, collapse bool) (csr, error) {
	off := make([]int64, n+1)
	for _, f := range from {
		off[f+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	// Each edge packs into one key, destination above strength:
	// destinations are >= 0 and strengths >= 1, so key order is
	// destination order and equal destinations sit next to each other.
	keys := make([]uint64, len(to))
	cursor := make([]int64, n)
	for i, f := range from {
		keys[off[f]+cursor[f]] = uint64(to[i])<<32 | uint64(uint32(w[i]))
		cursor[f]++
	}
	outTo := make([]EntityID, 0, len(to))
	outW := make([]int32, 0, len(w))
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
