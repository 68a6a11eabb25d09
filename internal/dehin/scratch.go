package dehin

import (
	"github.com/hinpriv/dehin/internal/bipartite"
	"github.com/hinpriv/dehin/internal/hin"
)

// queryScratch holds every piece of per-query working memory the engine
// needs, so a steady-state Deanonymize performs zero heap allocations: the
// profile candidate buffer, the memo tables for Algorithm 2's recursion, a
// flat adjacency frame per recursion depth, one reusable Hopcroft-Karp
// matcher, and the degree-quota vector for signature pruning. Attacks hand
// these out through a sync.Pool (one per concurrent query) so the public
// Deanonymize signature stays allocation-free without exposing the type.
type queryScratch struct {
	// memo[n-1] holds the linkMatch verdicts at recursion depth n.
	memo []memoTable
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
	// tclass holds the index class of every entity of memoTarget (-1 when
	// no auxiliary entity shares its exact-attribute tuple); filled with
	// the memo binding, and unused without an index.
	tclass []int32
	// tgrow holds the growable attributes of every entity of memoTarget,
	// len(Profile.GrowAttrs) values per entity like the index's grow
	// column; filled with the memo binding on the column path only.
	tgrow []int64
	// want holds the growable attributes of the current query's target
	// entity, read by the profile stage on the column path.
	want []int64
	// stats tallies this query's instrumentation events as plain local
	// integers; Attack.deanonymize flushes them to the shared atomic
	// counters once per query when metrics are enabled (and never reads
	// them otherwise - see metrics.go).
	stats queryStats
}

// frame returns the adjacency frame for recursion depth n (1-based).
// neighborGraph at depth n builds its bipartite graph into frame n while
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
	// target and auxiliary rows neighborGraph compares. Compact backends
	// decode varint rows into them (capacity amortizes to the largest row
	// seen); the in-memory backend returns zero-copy views and leaves
	// them untouched. One pair per frame keeps the rows of an in-progress
	// build alive while deeper recursion decodes its own.
	tbuf hin.EdgeBuf
	abuf hin.EdgeBuf
	// head and next hold this depth's class join (see join): head,
	// indexed by class, is all unmarked between builds; next is indexed
	// by auxiliary row position.
	head []int32
	next []int32
}

// States of an adjFrame.head entry besides a chain's first position: a
// class the target row lacks, and the end of a chain (an empty one
// included).
const (
	unmarked = -2
	chainEnd = -1
)

// classIn returns v's class in the class column col; a nil column (no
// profile index) puts every entity in class 0.
//
//hin:hot
func classIn(col []int32, v hin.EntityID) int32 {
	if col == nil {
		return 0
	}
	return col[v]
}

// join prepares one build's class join of the target row tns (classes in
// tcls, negative for a class no auxiliary entity has) with the auxiliary
// row ans (classes in acls): it marks every class the target row has, then
// walks ans from its end and chains each position whose class is marked,
// so head[c], next[head[c]], ... lists in ascending order the positions of
// ans in class c, ending at chainEnd. nclass bounds the class ids. head
// and next grow only past their high-water marks. Every build that joins
// must unjoin before it returns.
//
//hin:hot
func (f *adjFrame) join(tns []hin.EntityID, tcls []int32, ans []hin.EntityID, acls []int32, nclass int) {
	if len(f.head) < nclass {
		//hin:allow hotpath -- pooled growth: reallocates only past the frame's high-water mark
		head := make([]int32, nclass)
		for c := range head {
			head[c] = unmarked
		}
		f.head = head
	}
	if len(f.next) < len(ans) {
		// Doubling keeps a frame's reallocations logarithmic in its
		// longest auxiliary row.
		//hin:allow hotpath -- pooled growth: reallocates only past the frame's high-water mark
		f.next = make([]int32, max(len(ans), 2*len(f.next)))
	}
	for _, tb := range tns {
		if c := classIn(tcls, tb); c >= 0 {
			f.head[c] = chainEnd
		}
	}
	for j := len(ans) - 1; j >= 0; j-- {
		c := classIn(acls, ans[j])
		if h := f.head[c]; h != unmarked {
			f.next[j] = h
			f.head[c] = int32(j)
		}
	}
}

// unjoin clears join's marks, restoring head to all unmarked.
//
//hin:hot
func (f *adjFrame) unjoin(tns []hin.EntityID, tcls []int32) {
	for _, tb := range tns {
		if c := classIn(tcls, tb); c >= 0 {
			f.head[c] = unmarked
		}
	}
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

// memoTable memoizes one recursion depth's linkMatch results per
// (target, candidate) pair: an open-addressing table over uint64 keys
// (memoKey) whose slots are invalidated wholesale by bumping a generation
// counter - reset between target graphs costs O(1) and no allocation.
// Capacity persists (it only ever grows), so a steady-state query stays
// on the warm arrays.
type memoTable struct {
	keys []uint64
	vals []bool
	gens []uint32
	gen  uint32
	used int
}

const memoMinSize = 256 // power of two

func (t *memoTable) reset() {
	if len(t.keys) == 0 {
		t.keys = make([]uint64, memoMinSize)
		t.vals = make([]bool, memoMinSize)
		t.gens = make([]uint32, memoMinSize)
	}
	t.used = 0
	t.gen++
	if t.gen == 0 { // generation wrapped: wipe stale marks once per 2^32 resets
		for i := range t.gens {
			t.gens[i] = 0
		}
		t.gen = 1
	}
}

// memoKey packs a (target, candidate) pair into one table key.
func memoKey(tv, av hin.EntityID) uint64 {
	return uint64(uint32(tv))<<32 | uint64(uint32(av))
}

func memoHash(k uint64) uint64 {
	k *= 0x9E3779B97F4A7C15 // Fibonacci hashing; mixes the packed fields well
	return k ^ (k >> 29)
}

//hin:hot
func (t *memoTable) get(tv, av hin.EntityID) (res, ok bool) {
	k := memoKey(tv, av)
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
func (t *memoTable) put(tv, av hin.EntityID, res bool) {
	if t.used*4 >= len(t.keys)*3 {
		t.grow()
	}
	t.insert(memoKey(tv, av), res)
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
