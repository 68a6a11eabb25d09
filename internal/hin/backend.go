package hin

// EdgeBuf is a reusable decode buffer for adjacency rows. Backends that
// store adjacency in compressed form decode into it; backends with native
// in-memory rows ignore it and return zero-copy views. Callers own the
// buffer and reuse it across calls (typically one per scratch frame), so a
// steady-state query loop performs no per-row allocation on any backend.
type EdgeBuf struct {
	IDs []EntityID
	Ws  []int32
}

// GraphBackend is the read surface the attack, risk, and statistics layers
// consume. *Graph (in-memory CSR built by Builder) and *CSRGraph (compact
// varint-compressed CSR, optionally mmap-backed) both implement it.
//
// Semantics every implementation must honor:
//
//   - Adjacency rows are sorted ascending by neighbor id, with parallel
//     strengths (1 for unweighted link types).
//   - OutEdgesBuf/InEdgesBuf may return views into buf OR into backend
//     storage; the result is only valid until the next call with the same
//     buf, and callers must not mutate it.
//   - All accessors are safe for concurrent use (backends are immutable).
type GraphBackend interface {
	Schema() *Schema
	NumEntities() int
	NumEdges(lt LinkTypeID) int64
	NumEdgesTotal() int64

	EntityType(v EntityID) EntityTypeID
	Label(v EntityID) string
	Attr(v EntityID, i int) int64
	// AppendAttrs appends all scalar attributes of v to dst and returns
	// the extended slice (the interface-friendly form of Graph.Attrs).
	AppendAttrs(dst []int64, v EntityID) []int64
	Set(name string, v EntityID) []int32

	OutDegree(lt LinkTypeID, v EntityID) int
	InDegree(lt LinkTypeID, v EntityID) int
	OutDegrees(lt LinkTypeID, dst []int32) []int32
	InDegrees(lt LinkTypeID, dst []int32) []int32

	OutEdgesBuf(buf *EdgeBuf, lt LinkTypeID, v EntityID) ([]EntityID, []int32)
	InEdgesBuf(buf *EdgeBuf, lt LinkTypeID, v EntityID) ([]EntityID, []int32)
}

var _ GraphBackend = (*Graph)(nil)

// AppendAttrs appends all scalar attributes of v to dst.
func (g *Graph) AppendAttrs(dst []int64, v EntityID) []int64 {
	return append(dst, g.Attrs(v)...)
}

// OutEdgesBuf returns v's out-row via lt. The in-memory backend ignores
// buf and returns zero-copy views.
//
//hin:hot
func (g *Graph) OutEdgesBuf(buf *EdgeBuf, lt LinkTypeID, v EntityID) ([]EntityID, []int32) {
	return g.fwd[lt].row(v)
}

// InEdgesBuf returns v's in-row via lt. The in-memory backend ignores buf
// and returns zero-copy views.
//
//hin:hot
func (g *Graph) InEdgesBuf(buf *EdgeBuf, lt LinkTypeID, v EntityID) ([]EntityID, []int32) {
	return g.inRows(lt).row(v)
}
