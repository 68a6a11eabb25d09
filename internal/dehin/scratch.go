package dehin

import (
	"github.com/hinpriv/dehin/internal/bipartite"
	"github.com/hinpriv/dehin/internal/hin"
)

// queryScratch holds every piece of per-query working memory the engine
// needs, so a steady-state Deanonymize performs zero heap allocations: the
// profile candidate buffer, the memo table for Algorithm 2's recursion, a
// flat adjacency frame per recursion depth, one reusable Hopcroft-Karp
// matcher, and the degree-quota vector for signature pruning. Attacks hand
// these out through a sync.Pool (one per concurrent query) so the public
// Deanonymize signature stays allocation-free without exposing the type.
type queryScratch struct {
	memo memoTable
	// memoTarget is the prepared target graph the memo's entries are
	// valid for. Entries are pure in (target graph, auxiliary graph,
	// config), so they survive across queries until the scratch sees a
	// different graph (see Attack.ensureMemo). Holding the backend also
	// keeps that graph alive, which is what makes the identity check
	// sound: a dead graph's address can never be reused while the
	// scratch still references it.
	memoTarget hin.GraphBackend
	matcher    bipartite.Matcher
	frames     []adjFrame
	cand       []hin.EntityID // profile candidate buffer
	needs      []int32        // per-(link type, direction) quota of the current target entity
	// stats tallies this query's instrumentation events as plain local
	// integers; Attack.deanonymize flushes them to the shared atomic
	// counters once per query when metrics are enabled (and never reads
	// them otherwise - see metrics.go).
	stats queryStats
}

// frame returns the adjacency frame for recursion depth n (1-based).
// directionMatch at depth n builds its bipartite graph into frame n while
// the recursive linkMatch calls it makes during the build use frames
// 1..n-1, so one frame per depth is exactly enough; the Hopcroft-Karp runs
// themselves never nest (each fires only after its frame's build loop, and
// all deeper runs, have completed), which is why a single matcher is
// shared across depths.
//
//hin:hot
func (s *queryScratch) frame(n int) *adjFrame {
	for len(s.frames) < n {
		s.frames = append(s.frames, adjFrame{})
	}
	return &s.frames[n-1]
}

// adjFrame is a reusable flat (CSR-style) bipartite adjacency: row i of
// the current graph lives in dat[off[i]:off[i+1]]. rows rebuilds the
// []slice headers bipartite.Graph wants after dat has stopped moving -
// sub-slicing during the build would dangle whenever an append reallocates
// dat.
type adjFrame struct {
	off  []int32
	dat  []int32
	rows [][]int32
	// tbuf and abuf are this depth's pooled adjacency decode cursors: the
	// target and auxiliary rows directionMatch compares. Compact backends
	// decode varint rows into them (capacity amortizes to the largest row
	// seen); the in-memory backend returns zero-copy views and leaves
	// them untouched. One pair per frame keeps the rows of an in-progress
	// build alive while deeper recursion decodes its own.
	tbuf hin.EdgeBuf
	abuf hin.EdgeBuf
}

//hin:hot
func (f *adjFrame) reset() {
	f.off = append(f.off[:0], 0)
	f.dat = f.dat[:0]
}

//hin:hot
func (f *adjFrame) closeRow() {
	f.off = append(f.off, int32(len(f.dat)))
}

// graph materializes the frame as a bipartite.Graph with nRight right
// vertices. Row count is len(off)-1.
//
//hin:hot
func (f *adjFrame) graph(nRight int) bipartite.Graph {
	n := len(f.off) - 1
	if cap(f.rows) < n {
		//hin:allow hotpath -- pooled growth: reallocates only past the frame's high-water mark
		f.rows = make([][]int32, n)
	} else {
		f.rows = f.rows[:n]
	}
	for i := 0; i < n; i++ {
		f.rows[i] = f.dat[f.off[i]:f.off[i+1]]
	}
	return bipartite.Graph{NLeft: n, NRight: nRight, Adj: f.rows}
}

// memoKey is the fallback (map) memo key for graphs too large, or
// recursion too deep, for the packed representation.
type memoKey struct {
	tv, av hin.EntityID
	depth  int32
}

// Packed memo keys put the target id in bits 36..63, the auxiliary id in
// bits 8..35 and the depth in bits 0..7, so both graphs must stay under
// 2^28 entities and the distance under 256 - far beyond the paper's scale
// (2.3M users) and anything Run sees in practice. memoPackable gates per
// query and the memoTable falls back to a Go map beyond those limits.
const (
	memoMaxEntities = 1 << 28
	memoMaxDepth    = 255
)

func memoPackable(target, aux hin.GraphBackend, maxDistance int) bool {
	return target.NumEntities() < memoMaxEntities &&
		aux.NumEntities() < memoMaxEntities &&
		maxDistance <= memoMaxDepth
}

func packMemoKey(tv, av hin.EntityID, depth int) uint64 {
	return uint64(uint32(tv))<<36 | uint64(uint32(av))<<8 | uint64(uint8(depth))
}

// memoTable memoizes linkMatch results per (target, candidate, depth). The
// fast path is an open-addressing table over packed uint64 keys whose
// slots are invalidated wholesale by bumping a generation counter - reset
// between queries costs O(1) and no allocation. Capacity persists across
// queries (it only ever grows), so a steady-state query stays on the warm
// arrays.
type memoTable struct {
	keys []uint64
	vals []bool
	gens []uint32
	gen  uint32
	used int

	packed bool
	slow   map[memoKey]bool // fallback beyond packing limits
}

const memoMinSize = 256 // power of two

func (t *memoTable) reset(packed bool) {
	t.packed = packed
	if !packed {
		if t.slow == nil {
			t.slow = make(map[memoKey]bool, 64)
		} else {
			clear(t.slow)
		}
		return
	}
	if len(t.keys) == 0 {
		t.keys = make([]uint64, memoMinSize)
		t.vals = make([]bool, memoMinSize)
		t.gens = make([]uint32, memoMinSize)
	}
	t.used = 0
	t.gen++
	if t.gen == 0 { // generation wrapped: wipe stale marks once per 2^32 queries
		for i := range t.gens {
			t.gens[i] = 0
		}
		t.gen = 1
	}
}

func memoHash(k uint64) uint64 {
	k *= 0x9E3779B97F4A7C15 // Fibonacci hashing; mixes the packed fields well
	return k ^ (k >> 29)
}

//hin:hot
func (t *memoTable) get(tv, av hin.EntityID, depth int) (res, ok bool) {
	if !t.packed {
		res, ok = t.slow[memoKey{tv, av, int32(depth)}]
		return res, ok
	}
	k := packMemoKey(tv, av, depth)
	mask := uint64(len(t.keys) - 1)
	for i := memoHash(k) & mask; ; i = (i + 1) & mask {
		if t.gens[i] != t.gen {
			return false, false
		}
		if t.keys[i] == k {
			return t.vals[i], true
		}
	}
}

//hin:hot
func (t *memoTable) put(tv, av hin.EntityID, depth int, res bool) {
	if !t.packed {
		t.slow[memoKey{tv, av, int32(depth)}] = res
		return
	}
	if t.used*4 >= len(t.keys)*3 {
		t.grow()
	}
	t.insert(packMemoKey(tv, av, depth), res)
}

//hin:hot
func (t *memoTable) insert(k uint64, res bool) {
	mask := uint64(len(t.keys) - 1)
	for i := memoHash(k) & mask; ; i = (i + 1) & mask {
		if t.gens[i] != t.gen {
			t.gens[i] = t.gen
			t.keys[i] = k
			t.vals[i] = res
			t.used++
			return
		}
		if t.keys[i] == k {
			t.vals[i] = res
			return
		}
	}
}

func (t *memoTable) grow() {
	oldKeys, oldVals, oldGens := t.keys, t.vals, t.gens
	n := len(oldKeys) * 2
	t.keys = make([]uint64, n)
	t.vals = make([]bool, n)
	t.gens = make([]uint32, n)
	t.used = 0
	for i, g := range oldGens {
		if g == t.gen {
			t.insert(oldKeys[i], oldVals[i])
		}
	}
}
