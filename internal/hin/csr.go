package hin

import (
	"bytes"
	"encoding/binary"
)

// csrAdj is the compact adjacency of one link type in one direction: the
// concatenated varint-encoded rows (see adjcodec.go) and the (n+1) row
// byte-offset table, both stored as raw little-endian byte slices so they
// can alias an mmap'd file directly.
type csrAdj struct {
	rowOff   []byte // (n+1) uint64 LE byte offsets into dat
	dat      []byte
	count    int64
	weighted bool
}

//hin:hot
func (c *csrAdj) row(v EntityID) []byte {
	lo := binary.LittleEndian.Uint64(c.rowOff[int(v)*8:])
	hi := binary.LittleEndian.Uint64(c.rowOff[int(v)*8+8:])
	return c.dat[lo:hi]
}

// CSRGraph is the compact GraphBackend: flat columns, varint/delta
// compressed adjacency, and dictionary-interned scalar attributes. Every
// variable-length column is a raw byte slice aliasing a CSR file image,
// either encoded on the heap (FromGraph) or mmap'd (OpenCSRFile), with no
// per-entity unpacking at load time.
//
// Layout per entity v:
//
//	etype[v]                          entity type id (1 byte)
//	labelBlob[labelOff[v]:labelOff[v+1]]   label bytes
//	attrCodes[attrOff[v]*4 : attrOff[v+1]*4]  4-byte LE dict codes
//
// attrDict holds the distinct attribute values in first-occurrence order;
// a code indexes it. Sets are decoded to heap at load (they are small and
// consulted via map lookup).
type CSRGraph struct {
	schema *Schema
	n      int

	etype     []byte
	labelOff  []byte // (n+1) uint64 LE byte offsets into labelBlob
	labelBlob []byte

	attrDict  []int64
	attrOff   []byte // (n+1) uint64 LE code-index offsets into attrCodes
	attrCodes []byte // 4-byte LE dict code per scalar attribute

	sets map[string]*setCol

	fwd []csrAdj // indexed by LinkTypeID
	rev []csrAdj
}

var _ GraphBackend = (*CSRGraph)(nil)

// Schema returns the schema the graph was built against.
func (g *CSRGraph) Schema() *Schema { return g.schema }

// NumEntities returns the number of entities.
func (g *CSRGraph) NumEntities() int { return g.n }

// NumEdges returns the number of edges of link type lt.
func (g *CSRGraph) NumEdges(lt LinkTypeID) int64 { return g.fwd[lt].count }

// NumEdgesTotal returns the number of edges across all link types.
func (g *CSRGraph) NumEdgesTotal() int64 {
	var total int64
	for i := range g.fwd {
		total += g.fwd[i].count
	}
	return total
}

// EntityType returns the type of entity v.
func (g *CSRGraph) EntityType(v EntityID) EntityTypeID {
	return EntityTypeID(g.etype[v])
}

// Label returns the external identifier of entity v. Unlike the in-memory
// backend this converts from the packed blob and allocates; labels are
// only consulted on cold reporting paths.
func (g *CSRGraph) Label(v EntityID) string {
	lo := binary.LittleEndian.Uint64(g.labelOff[int(v)*8:])
	hi := binary.LittleEndian.Uint64(g.labelOff[int(v)*8+8:])
	return string(g.labelBlob[lo:hi])
}

func (g *CSRGraph) attrSpan(v EntityID) (int, int) {
	lo := binary.LittleEndian.Uint64(g.attrOff[int(v)*8:])
	hi := binary.LittleEndian.Uint64(g.attrOff[int(v)*8+8:])
	return int(lo), int(hi)
}

// NumAttrs returns how many scalar attributes entity v carries.
func (g *CSRGraph) NumAttrs(v EntityID) int {
	lo, hi := g.attrSpan(v)
	return hi - lo
}

// Attr returns the i-th scalar attribute of entity v.
//
//hin:hot
func (g *CSRGraph) Attr(v EntityID, i int) int64 {
	lo, _ := g.attrSpan(v)
	code := binary.LittleEndian.Uint32(g.attrCodes[(lo+i)*4:])
	return g.attrDict[code]
}

// AppendAttrs appends all scalar attributes of v to dst.
func (g *CSRGraph) AppendAttrs(dst []int64, v EntityID) []int64 {
	lo, hi := g.attrSpan(v)
	for i := lo; i < hi; i++ {
		code := binary.LittleEndian.Uint32(g.attrCodes[i*4:])
		dst = append(dst, g.attrDict[code])
	}
	return dst
}

// Set returns the sorted values of the named multi-valued attribute of
// entity v, or nil if the entity has none.
func (g *CSRGraph) Set(name string, v EntityID) []int32 {
	col, ok := g.sets[name]
	if !ok {
		return nil
	}
	return col.data[col.off[v]:col.off[v+1]]
}

// OutDegree returns the number of out-edges of v via link type lt.
//
//hin:hot
func (g *CSRGraph) OutDegree(lt LinkTypeID, v EntityID) int {
	return adjRowDegree(g.fwd[lt].row(v))
}

// InDegree returns the number of in-edges of v via link type lt.
//
//hin:hot
func (g *CSRGraph) InDegree(lt LinkTypeID, v EntityID) int {
	return adjRowDegree(g.rev[lt].row(v))
}

// OutDegrees appends the out-degree of every entity via lt to dst.
func (g *CSRGraph) OutDegrees(lt LinkTypeID, dst []int32) []int32 {
	return degreesFromRows(&g.fwd[lt], g.n, dst)
}

// InDegrees is OutDegrees over the reverse adjacency.
func (g *CSRGraph) InDegrees(lt LinkTypeID, dst []int32) []int32 {
	return degreesFromRows(&g.rev[lt], g.n, dst)
}

func degreesFromRows(c *csrAdj, n int, dst []int32) []int32 {
	for v := 0; v < n; v++ {
		dst = append(dst, int32(adjRowDegree(c.row(EntityID(v)))))
	}
	return dst
}

// OutEdgesBuf decodes v's out-row via lt into buf and returns views. The
// views are valid until buf's next use.
//
//hin:hot
func (g *CSRGraph) OutEdgesBuf(buf *EdgeBuf, lt LinkTypeID, v EntityID) ([]EntityID, []int32) {
	c := &g.fwd[lt]
	return decodeAdjRowFast(c.row(v), c.weighted, buf)
}

// InEdgesBuf decodes v's in-row via lt into buf and returns views.
//
//hin:hot
func (g *CSRGraph) InEdgesBuf(buf *EdgeBuf, lt LinkTypeID, v EntityID) ([]EntityID, []int32) {
	c := &g.rev[lt]
	return decodeAdjRowFast(c.row(v), c.weighted, buf)
}

// appendU64 appends one little-endian uint64 to dst.
func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// FromGraph converts an in-memory Graph to its compact form: it encodes g
// exactly as WriteCSRFile does and decodes the bytes in memory with the
// loader OpenCSRFile uses, so every CSRGraph comes out of one validating
// decoder.
func FromGraph(g *Graph) *CSRGraph {
	var buf bytes.Buffer
	hdr, err := encodeCSR(&buf, g)
	if err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	data := buf.Bytes()
	copy(data, hdr[:])
	c, err := parseCSRFile(data, 0)
	if err != nil {
		panic(err) // the loader accepts every encoded Graph
	}
	return c
}

// attrInterner assigns dense codes to attribute values in first-occurrence
// order, so the dictionary section is a pure function of the graph.
type attrInterner struct {
	dict   []int64
	code32 map[int64]uint32
}

func newAttrInterner() *attrInterner {
	return &attrInterner{code32: make(map[int64]uint32)}
}

func (in *attrInterner) code(a int64) uint32 {
	c, ok := in.code32[a]
	if !ok {
		c = uint32(len(in.dict))
		in.dict = append(in.dict, a)
		in.code32[a] = c
	}
	return c
}
