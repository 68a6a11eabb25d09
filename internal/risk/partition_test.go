package risk

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/tqq"
)

// exactRefinement is the hash-free reference for the sweep. Round 0 gives
// every entity the dense id of its selected attribute tuple; round d gives
// it the dense id of (its round-(d-1) id, then per utilized link type the
// sorted list of (strength, neighbor round-(d-1) id)). Ids are handed out
// in entity order, and each list is length-prefixed, so two entities get
// the same id exactly when the refinement cannot tell them apart. It
// returns one id row per distance 0..maxDist.
func exactRefinement(g hin.GraphBackend, lts []hin.LinkTypeID, attrs []int, maxDist int) [][]int32 {
	n := g.NumEntities()
	ids := map[string]int32{}
	dense := func(key []byte) int32 {
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(ids))
			ids[string(key)] = id
		}
		return id
	}
	var key []byte
	cur := make([]int32, n)
	for v := range cur {
		key = key[:0]
		for _, ai := range attrs {
			key = binary.AppendVarint(key, g.Attr(hin.EntityID(v), ai))
		}
		cur[v] = dense(key)
	}
	rows := [][]int32{cur}
	type pair struct{ w, c int32 }
	var row []pair
	var buf hin.EdgeBuf
	for d := 1; d <= maxDist; d++ {
		clear(ids)
		next := make([]int32, n)
		for v := range next {
			key = binary.AppendVarint(key[:0], int64(cur[v]))
			for _, lt := range lts {
				tos, ws := g.OutEdgesBuf(&buf, lt, hin.EntityID(v))
				row = row[:0]
				for i, to := range tos {
					row = append(row, pair{ws[i], cur[to]})
				}
				slices.SortFunc(row, func(a, b pair) int {
					return cmp.Or(cmp.Compare(a.w, b.w), cmp.Compare(a.c, b.c))
				})
				key = binary.AppendUvarint(key, uint64(len(row)))
				for _, p := range row {
					key = binary.AppendVarint(key, int64(p.w))
					key = binary.AppendVarint(key, int64(p.c))
				}
			}
			next[v] = dense(key)
		}
		rows = append(rows, next)
		cur = next
	}
	return rows
}

// samePartition reports where sigs and the reference ids partition the
// entities differently: two entities that share a signature but not a
// reference class (a merge, as a hash collision would make) or the
// reverse (a split).
func samePartition(sigs []uint64, ids []int32) error {
	bySig := make(map[uint64]int, len(sigs))
	byID := make(map[int32]int, len(ids))
	for v := range sigs {
		if u, ok := bySig[sigs[v]]; ok && ids[u] != ids[v] {
			return fmt.Errorf("entities %d and %d share a signature but not a reference class", u, v)
		}
		if u, ok := byID[ids[v]]; ok && sigs[u] != sigs[v] {
			return fmt.Errorf("entities %d and %d share a reference class but not a signature", u, v)
		}
		bySig[sigs[v]], byID[ids[v]] = v, v
	}
	return nil
}

// checkAgainstReference runs the sweep at distances 0..maxDist and
// requires its partition to equal the reference's at every distance. It
// returns the reference rows.
func checkAgainstReference(t *testing.T, g hin.GraphBackend, lts []hin.LinkTypeID, attrs []int, maxDist int) [][]int32 {
	t.Helper()
	want := exactRefinement(g, lts, attrs, maxDist)
	grid, err := SignatureGrid(g, SignatureConfig{MaxDistance: maxDist, LinkTypes: lts, EntityAttrs: attrs})
	if err != nil {
		t.Fatal(err)
	}
	for d := range want {
		if err := samePartition(grid[d], want[d]); err != nil {
			t.Fatalf("link types %v, distance %d: %v", lts, d, err)
		}
	}
	return want
}

func countClasses(ids []int32) int { return int(slices.Max(ids)) + 1 }

// The refinement's partition, not its hash values, is what every risk
// measure reads. Pin it against the hash-free reference: on generated
// graphs for each single link type (where classes are non-trivial) and
// all four, on both backends, and on a crafted graph that exercises hub
// rows, repeated (strength, class) pairs and empty rows.
func TestSignaturesMatchExactRefinement(t *testing.T) {
	attrs := []int{tqq.AttrNumTags}
	subsets := [][]hin.LinkTypeID{{0}, {1}, {2}, {3}, allLinkTypes()}
	for _, seed := range []uint64{2, 11, 29} {
		g := sweepTestGraph(t, 1500, seed)
		n := g.NumEntities()
		for _, be := range []struct {
			name string
			g    hin.GraphBackend
		}{{"mem", g}, {"csr", hin.FromGraph(g)}} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, be.name), func(t *testing.T) {
				for _, lts := range subsets {
					want := checkAgainstReference(t, be.g, lts, attrs, 3)
					c0, c1 := countClasses(want[0]), countClasses(want[1])
					if len(lts) == 1 && (c1 <= c0 || c1 >= n) {
						t.Fatalf("link type %v: %d classes at distance 1 (%d at 0, %d entities): the case tests nothing",
							lts, c1, c0, n)
					}
				}
			})
		}
	}

	t.Run("crafted", func(t *testing.T) {
		g, h := craftedGraph(t)
		for _, lts := range [][]hin.LinkTypeID{{h.mention}, {h.follow}, allLinkTypes()} {
			checkAgainstReference(t, g, lts, attrs, 3)
			checkAgainstReference(t, hin.FromGraph(g), lts, attrs, 3)
		}
		sigs, err := Signatures(g, SignatureConfig{MaxDistance: 1, LinkTypes: allLinkTypes(), EntityAttrs: attrs})
		if err != nil {
			t.Fatal(err)
		}
		if sigs[h.hub[0]] != sigs[h.hub[1]] {
			t.Fatal("hubs with one multiset of (strength, class) pairs over disjoint leaves must share a class")
		}
		if sigs[h.hub[2]] == sigs[h.hub[1]] {
			t.Fatal("a hub with one strength changed must leave its twin's class")
		}
		if sigs[h.hub[3]] == sigs[h.hub[1]] {
			t.Fatal("a hub whose strengths and classes are re-paired must leave its twin's class")
		}
		if sigs[h.empty] == sigs[h.nonEmpty] {
			t.Fatal("an empty row must not share a class with a non-empty one")
		}
	})
}

// craftedRoles names the entities of craftedGraph that the test asserts on.
type craftedRoles struct {
	mention, follow hin.LinkTypeID
	hub             [4]hin.EntityID
	empty, nonEmpty hin.EntityID
}

// craftedGraph has 84 leaves in three tag-count classes and four hubs of
// 42 mentions each, more than the 32 entries a row once needed to leave
// insertion sort. Hubs 0 and 1 mention disjoint leaves with the same
// multiset of (strength, class) pairs, in which every pair repeats;
// hub 2 is hub 1 with one strength raised; hub 3 is hub 1 with two pairs'
// strengths swapped, so its strengths and its classes are each the same
// multiset as hub 1's, but not its pairs. Two more entities are equal
// except that one follows a leaf and the other follows no one.
func craftedGraph(t *testing.T) (*hin.Graph, craftedRoles) {
	t.Helper()
	s := tqq.TargetSchema()
	b := hin.NewBuilder(s)
	r := craftedRoles{mention: s.MustLinkTypeID(tqq.LinkMention), follow: s.MustLinkTypeID(tqq.LinkFollow)}
	const leaves, deg = 84, 42
	for i := 0; i < leaves; i++ {
		b.AddEntity(0, "", 1980, 1, 10, int64(i%3))
	}
	for i := range r.hub {
		r.hub[i] = b.AddEntity(0, "", 1970, 2, 50, 9)
	}
	r.empty = b.AddEntity(0, "", 1960, 1, 5, 4)
	r.nonEmpty = b.AddEntity(0, "", 1960, 1, 5, 4)
	add := func(lt hin.LinkTypeID, from, to hin.EntityID, w int32) {
		if err := b.AddEdge(lt, from, to, w); err != nil {
			t.Fatal(err)
		}
	}
	// Leaf i has class i%3 and is mentioned with strength 1 + (i/3)%2, so
	// each (strength, class) pair occurs seven times in a hub's row.
	strength := func(i int) int32 { return 1 + int32(i/3%2) }
	for i := 0; i < deg; i++ {
		add(r.mention, r.hub[0], hin.EntityID(i), strength(i))
	}
	for i := 0; i < deg; i++ {
		add(r.mention, r.hub[1], hin.EntityID(deg+i), strength(i))
	}
	for i := 0; i < deg; i++ {
		w := strength(i)
		if i == 5 {
			w += 4
		}
		add(r.mention, r.hub[2], hin.EntityID(deg+i), w)
	}
	// Leaves 0 (class 0, strength 1) and 4 (class 1, strength 2) trade
	// strengths in hub 3's row.
	for i := 0; i < deg; i++ {
		w := strength(i)
		switch i {
		case 0:
			w = strength(4)
		case 4:
			w = strength(0)
		}
		add(r.mention, r.hub[3], hin.EntityID(i), w)
	}
	add(r.follow, r.nonEmpty, 0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, r
}

// fuzzSchema has one entity type with one attribute and two weighted link
// types among its entities.
var fuzzSchema = hin.MustSchema(
	[]hin.EntityType{{Name: "U", Attrs: []string{"a"}}},
	[]hin.LinkType{
		{Name: "x", From: "U", To: "U", Weighted: true, AllowSelf: true},
		{Name: "y", From: "U", To: "U", Weighted: true},
	},
)

// FuzzSignaturesPartition checks the sweep against the hash-free
// reference on small graphs built from the input: byte 0 sets the entity
// count (1..64), the next bytes each entity's attribute (0..2), and every
// following triple one edge (link type, source, destination, strength
// 1..3). Duplicate edges sum their strengths; self-loops on the link type
// that forbids them are skipped.
func FuzzSignaturesPartition(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 0, 1, 2, 2, 0, 1})
	f.Add([]byte{8, 0, 1, 2, 0, 1, 2, 0, 1, 0, 1, 2, 1, 2, 3, 4, 5, 6, 0x81, 7, 0, 2, 1, 0, 0x41, 5, 3})
	f.Add([]byte{6, 1, 1, 1, 1, 1, 1, 0, 1, 2, 1, 3, 4, 1, 5, 0, 1, 0, 1, 0x40, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			c := data[0]
			data = data[1:]
			return c
		}
		n := 1 + int(next()%64)
		b := hin.NewBuilder(fuzzSchema)
		for i := 0; i < n; i++ {
			b.AddEntity(0, "", int64(next()%3))
		}
		for len(data) >= 3 {
			h, from, to := next(), hin.EntityID(int(next())%n), hin.EntityID(int(next())%n)
			lt := hin.LinkTypeID(h & 1)
			if lt == 1 && from == to {
				continue
			}
			if err := b.AddEdge(lt, from, to, 1+int32(h>>1)%3); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, lts := range [][]hin.LinkTypeID{{0}, {1}, {0, 1}} {
			checkAgainstReference(t, g, lts, []int{0}, 3)
			checkAgainstReference(t, hin.FromGraph(g), lts, []int{0}, 3)
		}
	})
}
