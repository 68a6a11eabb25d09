package hin

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/hinpriv/dehin/internal/randx"
)

// rowsSchema has one unweighted, one weighted and one AllowSelf link type
// among users, plus a cross-type link to a second entity type.
func rowsSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema(
		[]EntityType{
			{Name: "User", Attrs: []string{"yob"}, SetAttrs: []string{"tags"}},
			{Name: "Tag"},
		},
		[]LinkType{
			{Name: "follow", From: "User", To: "User"},
			{Name: "mention", From: "User", To: "User", Weighted: true},
			{Name: "self", From: "User", To: "User", Weighted: true, AllowSelf: true},
			{Name: "has", From: "User", To: "Tag"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomMultigraph builds a rowsSchema graph from an edge stream with
// duplicate edges on every link type: users first, then tags.
func randomMultigraph(t testing.TB, seed uint64, users, tags, edges int) *Graph {
	t.Helper()
	rng := randx.New(seed)
	b := NewBuilder(rowsSchema(t))
	for i := 0; i < users; i++ {
		v := b.AddEntity(0, fmt.Sprintf("u%d", i), int64(1900+rng.Intn(100)))
		if rng.Intn(2) == 0 {
			b.SetSet("tags", v, []int32{int32(rng.Intn(9)), int32(rng.Intn(9))})
		}
	}
	for i := 0; i < tags; i++ {
		b.AddEntity(1, fmt.Sprintf("t%d", i))
	}
	for i := 0; i < edges; i++ {
		f := EntityID(rng.Intn(users))
		to := EntityID(rng.Intn(users))
		w := int32(rng.IntRange(1, 6))
		var err error
		switch lt := LinkTypeID(rng.Intn(4)); lt {
		case 0:
			if f != to {
				err = b.AddEdge(lt, f, to, 1)
			}
		case 1:
			if f != to {
				err = b.AddEdge(lt, f, to, w)
			}
		case 2:
			err = b.AddEdge(lt, f, to, w)
		case 3:
			if tags > 0 {
				err = b.AddEdge(lt, f, EntityID(users+rng.Intn(tags)), 1)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// outRows copies every link type's forward rows out of g.
func outRows(g GraphBackend) []Rows {
	n := g.NumEntities()
	rows := make([]Rows, g.Schema().NumLinkTypes())
	buf := &EdgeBuf{}
	for lt := range rows {
		r := Rows{Off: make([]int64, n+1)}
		for v := 0; v < n; v++ {
			tos, ws := g.OutEdgesBuf(buf, LinkTypeID(lt), EntityID(v))
			r.To = append(r.To, tos...)
			r.W = append(r.W, ws...)
			r.Off[v+1] = int64(len(r.To))
		}
		rows[lt] = r
	}
	return rows
}

// naiveTranspose is the reverse adjacency of r by collecting every edge
// and sorting each destination's sources.
func naiveTranspose(n int, r Rows) [][]Edge {
	in := make([][]Edge, n)
	for v := 0; v < n; v++ {
		for i := r.Off[v]; i < r.Off[v+1]; i++ {
			in[r.To[i]] = append(in[r.To[i]], Edge{To: EntityID(v), W: r.W[i]})
		}
	}
	for _, row := range in {
		slices.SortFunc(row, func(a, b Edge) int { return int(a.To) - int(b.To) })
	}
	return in
}

// checkTransposed fails unless g's reverse rows equal the naive
// transposition of its forward rows and every row strictly ascends.
func checkTransposed(t *testing.T, g *Graph) {
	t.Helper()
	n := g.NumEntities()
	for lt, r := range outRows(g) {
		want := naiveTranspose(n, r)
		for v := 0; v < n; v++ {
			froms, ws := g.InEdges(LinkTypeID(lt), EntityID(v))
			for _, ids := range [][]EntityID{r.To[r.Off[v]:r.Off[v+1]], froms} {
				for i := 1; i < len(ids); i++ {
					if ids[i] <= ids[i-1] {
						t.Fatalf("link %d entity %d: row %v not strictly ascending", lt, v, ids)
					}
				}
			}
			got := make([]Edge, len(froms))
			for i := range froms {
				got[i] = Edge{To: froms[i], W: ws[i]}
			}
			if !slices.Equal(got, want[v]) {
				t.Fatalf("link %d entity %d: in-row %v, want %v", lt, v, got, want[v])
			}
		}
	}
}

func TestBuildReverseIsTransposition(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := randx.New(seed)
		users := rng.IntRange(1, 40)
		checkTransposed(t, randomMultigraph(t, seed, users, rng.Intn(4), rng.Intn(8*users)))
	}
}

// Rebuilding a graph from its own forward rows, from either backend, gives
// the identical graph: the two encode to the same file image, which holds
// every row in both directions, weight, label, attribute and set.
func TestWithOutRowsRebuildsIdenticalGraph(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := randx.New(seed)
		users := rng.IntRange(1, 30)
		g := randomMultigraph(t, seed, users, rng.Intn(4), rng.Intn(6*users))
		want := csrImage(t, g)
		for _, src := range []GraphBackend{g, FromGraph(g)} {
			got, err := WithOutRows(src, outRows(src))
			if err != nil {
				t.Fatalf("seed %d %T: %v", seed, src, err)
			}
			if !bytes.Equal(csrImage(t, got), want) {
				t.Fatalf("seed %d %T: rebuilt graph differs from the source", seed, src)
			}
			checkTransposed(t, got)
		}
	}
}

func TestWithOutRowsEmptyGraph(t *testing.T) {
	g, err := NewBuilder(rowsSchema(t)).Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := WithOutRows(g, outRows(g))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEntities() != 0 || got.NumEdgesTotal() != 0 {
		t.Fatalf("empty rebuild has %d entities, %d edges", got.NumEntities(), got.NumEdgesTotal())
	}
}

func TestWithOutRowsRejects(t *testing.T) {
	// Users 0..2, tag 3.
	b := NewBuilder(rowsSchema(t))
	for i := 0; i < 3; i++ {
		b.AddEntity(0, "", 1990)
	}
	b.AddEntity(1, "")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const follow, mention, self, has LinkTypeID = 0, 1, 2, 3
	// valid is a graph's worth of good rows; each case breaks one link
	// type's rows.
	valid := func() []Rows {
		return []Rows{
			follow:  {Off: []int64{0, 2, 2, 2, 2}, To: []EntityID{1, 2}, W: []int32{1, 1}},
			mention: {Off: []int64{0, 1, 2, 2, 2}, To: []EntityID{2, 0}, W: []int32{4, 9}},
			self:    {Off: []int64{0, 2, 2, 2, 2}, To: []EntityID{0, 1}, W: []int32{3, 3}},
			has:     {Off: []int64{0, 1, 1, 1, 1}, To: []EntityID{3}, W: []int32{1}},
		}
	}
	if _, err := WithOutRows(g, valid()); err != nil {
		t.Fatalf("valid rows rejected: %v", err)
	}
	cases := []struct {
		name  string
		lt    LinkTypeID
		rows  Rows
		count int // number of link types passed, if not all
		want  string
	}{
		{name: "too few link types", count: 3, want: "3 adjacency rows for 4 link types"},
		{name: "too many link types", count: 5, want: "5 adjacency rows for 4 link types"},
		{name: "short Off", lt: follow, rows: Rows{Off: []int64{0, 0, 0, 0}}, want: "length 5"},
		{name: "long Off", lt: follow, rows: Rows{Off: []int64{0, 0, 0, 0, 0, 0}}, want: "length 5"},
		{name: "nil Off", lt: follow, rows: Rows{}, want: "length 5"},
		{name: "Off not starting at 0", lt: follow, rows: Rows{Off: []int64{1, 1, 1, 1, 1}, To: []EntityID{1}, W: []int32{1}}, want: "start at 0"},
		{name: "decreasing Off", lt: follow, rows: Rows{Off: []int64{0, 2, 1, 2, 2}, To: []EntityID{1, 2}, W: []int32{1, 1}}, want: "decrease"},
		{name: "Off past the end", lt: follow, rows: Rows{Off: []int64{0, 9, 0, 1, 1}, To: []EntityID{1}, W: []int32{1}}, want: "decrease"},
		{name: "Off end short of To", lt: follow, rows: Rows{Off: []int64{0, 1, 1, 1, 1}, To: []EntityID{1, 2}, W: []int32{1, 1}}, want: "end at 1"},
		{name: "W shorter than To", lt: follow, rows: Rows{Off: []int64{0, 2, 2, 2, 2}, To: []EntityID{1, 2}, W: []int32{1}}, want: "end at 2"},
		{name: "destination past n", lt: follow, rows: Rows{Off: []int64{0, 1, 1, 1, 1}, To: []EntityID{4}, W: []int32{1}}, want: "out of range"},
		{name: "negative destination", lt: follow, rows: Rows{Off: []int64{0, 1, 1, 1, 1}, To: []EntityID{-1}, W: []int32{1}}, want: "out of range"},
		{name: "duplicate destination", lt: mention, rows: Rows{Off: []int64{0, 2, 2, 2, 2}, To: []EntityID{1, 1}, W: []int32{2, 2}}, want: "strictly ascending"},
		{name: "descending destination", lt: mention, rows: Rows{Off: []int64{0, 2, 2, 2, 2}, To: []EntityID{2, 1}, W: []int32{2, 2}}, want: "strictly ascending"},
		{name: "wrong source type", lt: follow, rows: Rows{Off: []int64{0, 0, 0, 0, 1}, To: []EntityID{0}, W: []int32{1}}, want: `source type "User", entity 3 has "Tag"`},
		{name: "wrong destination type", lt: follow, rows: Rows{Off: []int64{0, 1, 1, 1, 1}, To: []EntityID{3}, W: []int32{1}}, want: `destination type "User", entity 3 has "Tag"`},
		{name: "cross-type destination", lt: has, rows: Rows{Off: []int64{0, 1, 1, 1, 1}, To: []EntityID{1}, W: []int32{1}}, want: `destination type "Tag"`},
		{name: "forbidden self-loop", lt: mention, rows: Rows{Off: []int64{0, 0, 1, 1, 1}, To: []EntityID{1}, W: []int32{1}}, want: "forbids self-loops"},
		{name: "zero weight", lt: self, rows: Rows{Off: []int64{0, 1, 1, 1, 1}, To: []EntityID{0}, W: []int32{0}}, want: "must be positive"},
		{name: "negative weight", lt: mention, rows: Rows{Off: []int64{0, 1, 1, 1, 1}, To: []EntityID{1}, W: []int32{-3}}, want: "must be positive"},
		{name: "weight on unweighted type", lt: follow, rows: Rows{Off: []int64{0, 1, 1, 1, 1}, To: []EntityID{1}, W: []int32{2}}, want: "requires strength 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := valid()
			switch {
			case tc.count > len(rows):
				rows = append(rows, rows[0])
			case tc.count > 0:
				rows = rows[:tc.count]
			default:
				rows[tc.lt] = tc.rows
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			for _, src := range []GraphBackend{g, FromGraph(g)} {
				got, err := WithOutRows(src, rows)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%T: got (%v, %v), want error containing %q", src, got, err, tc.want)
				}
			}
		})
	}
}

// completeSchema has a weighted link type that allows self-loops, a plain
// weighted one and an unweighted one, all among users, and an entity type
// that no link type joins.
func completeSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema(
		[]EntityType{{Name: "User", Attrs: []string{"yob"}, SetAttrs: []string{"tags"}}, {Name: "Page"}},
		[]LinkType{
			{Name: "loop", From: "User", To: "User", Weighted: true, AllowSelf: true},
			{Name: "mention", From: "User", To: "User", Weighted: true},
			{Name: "follow", From: "User", To: "User"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// completeUsers is a completeSchema graph of n users with attributes, a
// few tag sets and no edges, then the given extra entity types.
func completeUsers(t testing.TB, seed uint64, n int, extra ...EntityTypeID) *Graph {
	t.Helper()
	rng := randx.New(seed)
	b := NewBuilder(completeSchema(t))
	for i := 0; i < n; i++ {
		v := b.AddEntity(0, fmt.Sprintf("u%d", i), int64(1900+rng.Intn(100)))
		if rng.Intn(3) == 0 {
			b.SetSet("tags", v, []int32{int32(rng.Intn(9))})
		}
	}
	for _, et := range extra {
		b.AddEntity(et, "x")
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomStrengths draws a strength matrix per link type of src's schema
// for a completion of its n entities: 1..9 on weighted types, 1 otherwise.
func randomStrengths(src GraphBackend, seed uint64) [][]int32 {
	rng := randx.New(seed)
	n := src.NumEntities()
	out := make([][]int32, src.Schema().NumLinkTypes())
	for lt := range out {
		decl := src.Schema().LinkType(LinkTypeID(lt))
		w := make([]int32, n*completeWidth(n, decl.AllowSelf))
		for i := range w {
			w[i] = 1
			if decl.Weighted {
				w[i] = int32(rng.IntRange(1, 9))
			}
		}
		out[lt] = w
	}
	return out
}

// completeAsRows spells strengths out as the complete rows WithOutRows
// takes: u's row lists every v (but u, without self-loops) ascending.
func completeAsRows(s *Schema, n int, strengths [][]int32) []Rows {
	rows := make([]Rows, len(strengths))
	for lt, w := range strengths {
		self := s.LinkType(LinkTypeID(lt)).AllowSelf
		r := Rows{Off: make([]int64, n+1), W: slices.Clone(w)}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if v != u || self {
					r.To = append(r.To, EntityID(v))
				}
			}
			r.Off[u+1] = int64(len(r.To))
		}
		rows[lt] = r
	}
	return rows
}

// Complete builds what WithOutRows builds from the same complete rows, from
// either backend; its rows share their offset and destination arrays.
func TestCompleteMatchesWithOutRows(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 129} {
		g := completeUsers(t, uint64(n), n)
		for _, src := range []GraphBackend{g, FromGraph(g)} {
			strengths := randomStrengths(src, uint64(n)+7)
			want, err := WithOutRows(src, completeAsRows(src.Schema(), n, strengths))
			if err != nil {
				t.Fatalf("n=%d %T: reference rows rejected: %v", n, src, err)
			}
			got, err := Complete(src, strengths)
			if err != nil {
				t.Fatalf("n=%d %T: %v", n, src, err)
			}
			if !bytes.Equal(csrImage(t, got), csrImage(t, want)) {
				t.Fatalf("n=%d %T: completed graph differs from WithOutRows", n, src)
			}
			if n >= 2 {
				checkSharedRows(t, got)
			}
		}
	}
}

// checkSharedRows fails unless mention and follow (no self-loops) share
// one offset and one destination array, apart from loop's.
func checkSharedRows(t *testing.T, g *Graph) {
	t.Helper()
	const loop, mention, follow = 0, 1, 2
	same := func(a, b *csr) bool {
		return &a.off[0] == &b.off[0] && &a.to[0] == &b.to[0]
	}
	if !same(&g.fwd[mention], &g.fwd[follow]) {
		t.Fatal("mention and follow have their own destinations")
	}
	if same(&g.fwd[loop], &g.fwd[mention]) {
		t.Fatal("loop shares the destinations of a link type without self-loops")
	}
}

func TestCompleteRejects(t *testing.T) {
	const loop, mention, follow = 0, 1, 2
	g := completeUsers(t, 1, 3)
	page := completeUsers(t, 1, 2, 1) // users 0..1, page 2
	if _, err := Complete(g, randomStrengths(g, 1)); err != nil {
		t.Fatalf("valid strengths rejected: %v", err)
	}
	cases := []struct {
		name string
		g    *Graph
		edit func([][]int32) [][]int32
		want string
	}{
		{"too few matrices", g, func(s [][]int32) [][]int32 { return s[:2] }, "2 strength matrices for 3 link types"},
		{"too many matrices", g, func(s [][]int32) [][]int32 { return append(s, s[0]) }, "4 strength matrices for 3 link types"},
		{"short matrix", g, func(s [][]int32) [][]int32 { s[mention] = s[mention][1:]; return s }, `link "mention": 5 strengths for 3 entities, want 6`},
		{"self-loop matrix on a link without", g, func(s [][]int32) [][]int32 { s[follow] = s[loop]; return s }, `link "follow": 9 strengths for 3 entities, want 6`},
		{"strength 0", g, func(s [][]int32) [][]int32 { s[loop][4] = 0; return s }, `link "loop": edge 1 -> 1: strength must be positive, got 0`},
		{"strength -1", g, func(s [][]int32) [][]int32 { s[mention][3] = -1; return s }, `link "mention": edge 1 -> 2: strength must be positive, got -1`},
		{"strength 2 on the unweighted type", g, func(s [][]int32) [][]int32 { s[follow][0] = 2; return s }, `unweighted link "follow" requires strength 1, got 2 (edge 0 -> 1)`},
		{"entity of another type", page, func(s [][]int32) [][]int32 { return s }, `link "loop" joins "User" to "User", entity 2 has "Page"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			for _, src := range []GraphBackend{tc.g, FromGraph(tc.g)} {
				got, err := Complete(src, tc.edit(randomStrengths(src, 1)))
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%T: got (%v, %v), want error containing %q", src, got, err, tc.want)
				}
			}
		})
	}
}

// keptRows is outRows(g) without, per link type lt, the edges of strength
// drop[lt]; dropped[lt] counts the edges left out.
func keptRows(g GraphBackend, drop []int32) (rows []Rows, dropped []int64) {
	rows = outRows(g)
	dropped = make([]int64, len(rows))
	for lt, r := range rows {
		k := Rows{Off: make([]int64, len(r.Off))}
		for v := 0; v+1 < len(r.Off); v++ {
			for i := r.Off[v]; i < r.Off[v+1]; i++ {
				if r.W[i] == drop[lt] {
					dropped[lt]++
					continue
				}
				k.To = append(k.To, r.To[i])
				k.W = append(k.W, r.W[i])
			}
			k.Off[v+1] = int64(len(k.To))
		}
		rows[lt] = k
	}
	return rows, dropped
}

// The strength filter builds what WithOutRows builds from the forward
// rows it keeps, from either backend: keeping every edge, dropping one
// strength, and dropping every edge.
func TestWithoutStrengthMatchesWithOutRows(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		rng := randx.New(seed)
		users := rng.IntRange(1, 30)
		g := randomMultigraph(t, seed, users, rng.Intn(4), rng.Intn(6*users))
		// ones is g with every strength 1, so a drop of 1 takes every edge.
		rows := outRows(g)
		for _, r := range rows {
			for i := range r.W {
				r.W[i] = 1
			}
		}
		ones, err := WithOutRows(g, rows)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			g    *Graph
			drop []int32
		}{
			{"drop 0 keeps every edge", g, []int32{0, 0, 0, 0}},
			{"one strength", g, []int32{0, int32(rng.IntRange(1, 6)), 0, 0}},
			{"every edge", ones, []int32{1, 1, 1, 1}},
		} {
			for _, src := range []GraphBackend{tc.g, FromGraph(tc.g)} {
				kept, dropped := keptRows(src, tc.drop)
				want, err := WithOutRows(src, kept)
				if err != nil {
					t.Fatal(err)
				}
				got, err := WithoutStrength(src, tc.drop, dropped)
				if err != nil {
					t.Fatalf("seed %d %s %T: %v", seed, tc.name, src, err)
				}
				if !bytes.Equal(csrImage(t, got), csrImage(t, want)) {
					t.Fatalf("seed %d %s %T: filtered graph differs from WithOutRows", seed, tc.name, src)
				}
				if tc.name == "every edge" && got.NumEdgesTotal() != 0 {
					t.Fatalf("seed %d %T: %d edges left after dropping all", seed, src, got.NumEdgesTotal())
				}
			}
		}
	}
}

func TestWithoutStrengthRejects(t *testing.T) {
	g := randomMultigraph(t, 3, 20, 2, 200)
	_, dropped := keptRows(g, []int32{1, 2, 2, 1})
	for _, tc := range []struct {
		name    string
		drop    []int32
		dropped []int64
		want    string
	}{
		{"short drop", []int32{1, 2, 2}, dropped, "3 dropped strengths and 4 counts for 4 link types"},
		{"long drop", []int32{1, 2, 2, 1, 0}, dropped, "5 dropped strengths"},
		{"short counts", []int32{1, 2, 2, 1}, dropped[:2], "2 counts"},
		{"count too low", []int32{1, 2, 2, 1}, []int64{dropped[0], dropped[1] - 1, dropped[2], dropped[3]}, "counted"},
		{"count too high", []int32{1, 2, 2, 1}, []int64{dropped[0], dropped[1], dropped[2] + 1, dropped[3]}, "counted"},
		{"count past every edge", []int32{1, 2, 2, 1}, []int64{dropped[0], g.NumEdges(1) + 1, dropped[2], dropped[3]}, "counted"},
	} {
		for _, src := range []GraphBackend{g, FromGraph(g)} {
			got, err := WithoutStrength(src, tc.drop, tc.dropped)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s %T: got (%v, %v), want error containing %q", tc.name, src, got, err, tc.want)
			}
		}
	}
}

// builtFromRows builds src's entities with the given rows through a
// Builder, which transposes them as it builds.
func builtFromRows(t testing.TB, src *Graph, rows []Rows) *Graph {
	t.Helper()
	b := NewBuilder(src.Schema())
	for v := range EntityID(src.NumEntities()) {
		b.AddEntity(src.EntityType(v), src.Label(v), src.Attrs(v)...)
	}
	for lt, r := range rows {
		for u := 0; u+1 < len(r.Off); u++ {
			for i := r.Off[u]; i < r.Off[u+1]; i++ {
				if err := b.AddEdge(LinkTypeID(lt), EntityID(u), r.To[i], r.W[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The three out-row constructors leave a graph's in-rows to its first
// in-edge read. Four goroutines race to that read on a fresh graph of
// each, each starting with another of the four in-edge methods, and every
// answer must equal the Builder's, which transposed the same rows as it
// built them. Once built, in-rows are read without allocating.
func TestConcurrentFirstInEdgeRead(t *testing.T) {
	const readers = 4
	multi := randomMultigraph(t, 5, 40, 3, 400)
	drop := []int32{0, 2, 3, 0}
	kept, dropped := keptRows(multi, drop)
	const n = 70
	users := completeUsers(t, 5, n)
	strengths := randomStrengths(users, 12)
	for _, tc := range []struct {
		name  string
		build func() (*Graph, error)
		ref   *Graph
	}{
		{"WithOutRows", func() (*Graph, error) { return WithOutRows(multi, outRows(multi)) }, multi},
		{"WithoutStrength", func() (*Graph, error) { return WithoutStrength(multi, drop, dropped) }, builtFromRows(t, multi, kept)},
		{"Complete", func() (*Graph, error) { return Complete(users, strengths) },
			builtFromRows(t, users, completeAsRows(users.Schema(), n, strengths))},
	} {
		g, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := range 4 {
					if err := sameInEdges(g, tc.ref, (r+k)%4); err != nil {
						t.Errorf("%s reader %d: %v", tc.name, r, err)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()

		buf := &EdgeBuf{}
		if allocs := testing.AllocsPerRun(20, func() {
			for lt := range LinkTypeID(len(g.fwd)) {
				for v := range EntityID(g.NumEntities()) {
					g.InEdgesBuf(buf, lt, v)
					g.InDegree(lt, v)
				}
			}
		}); allocs != 0 {
			t.Errorf("%s: in-edge reads allocated %.1f times per pass after the first read", tc.name, allocs)
		}
	}
}

// sameInEdges compares g's in-rows with ref's through one in-edge method:
// 0 InEdges, 1 InEdgesBuf, 2 InDegree, 3 InDegrees.
func sameInEdges(g, ref *Graph, method int) error {
	buf := &EdgeBuf{}
	for lt := range LinkTypeID(len(g.fwd)) {
		if method == 3 {
			if got, want := g.InDegrees(lt, nil), ref.InDegrees(lt, nil); !slices.Equal(got, want) {
				return fmt.Errorf("link %d: InDegrees %v, want %v", lt, got, want)
			}
			continue
		}
		for v := range EntityID(g.NumEntities()) {
			wantTo, wantW := ref.InEdges(lt, v)
			var gotTo []EntityID
			var gotW []int32
			switch method {
			case 0:
				gotTo, gotW = g.InEdges(lt, v)
			case 1:
				gotTo, gotW = g.InEdgesBuf(buf, lt, v)
			case 2:
				if got := g.InDegree(lt, v); got != len(wantTo) {
					return fmt.Errorf("link %d entity %d: InDegree %d, want %d", lt, v, got, len(wantTo))
				}
				continue
			}
			if !slices.Equal(gotTo, wantTo) || !slices.Equal(gotW, wantW) {
				return fmt.Errorf("link %d entity %d: in-row %v / %v, want %v / %v", lt, v, gotTo, gotW, wantTo, wantW)
			}
		}
	}
	return nil
}

// FuzzWithOutRows decodes arbitrary bytes into adjacency rows over a fixed
// six-entity graph (users 0..4, tag 5). Every input must either be
// rejected with an error or build a graph whose rows strictly ascend and
// whose reverse side is the transposition of its forward side. An accepted
// graph is then filtered by WithoutStrength, dropping per link type the
// strength named by one of the input's last bytes, and must equal
// WithOutRows over the rows the filter keeps.
func FuzzWithOutRows(f *testing.F) {
	b := NewBuilder(rowsSchema(f))
	for i := 0; i < 5; i++ {
		b.AddEntity(0, fmt.Sprintf("u%d", i), int64(1980+i))
	}
	b.AddEntity(1, "t")
	base, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	n := base.NumEntities()
	f.Add(make([]byte, 64))
	for seed := uint64(1); seed <= 4; seed++ {
		want := randomFuzzGraph(f, base, seed)
		data := encodeFuzzRows(outRows(want))
		g, err := WithOutRows(base, decodeFuzzRows(data, base.Schema().NumLinkTypes(), n))
		if err != nil || g.NumEdgesTotal() != want.NumEdgesTotal() {
			f.Fatalf("seed %d does not decode to its graph: %v", seed, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := decodeFuzzRows(data, base.Schema().NumLinkTypes(), n)
		g, err := WithOutRows(base, rows)
		if err != nil {
			return
		}
		checkTransposed(t, g)
		drop := make([]int32, len(rows))
		for lt := range drop {
			if k := len(data) - 1 - lt; k >= 0 {
				drop[lt] = int32(data[k] % 4)
			}
		}
		kept, dropped := keptRows(g, drop)
		want, err := WithOutRows(g, kept)
		if err != nil {
			t.Fatalf("kept rows rejected: %v", err)
		}
		got, err := WithoutStrength(g, drop, dropped)
		if err != nil {
			t.Fatalf("drop %v: %v", drop, err)
		}
		sameAdjacency(t, got, want)
	})
}

// sameAdjacency fails unless a and b hold equal rows in both directions.
func sameAdjacency(t *testing.T, a, b *Graph) {
	t.Helper()
	for lt := range a.fwd {
		ain, bin := inCSR(a, LinkTypeID(lt)), inCSR(b, LinkTypeID(lt))
		for _, pair := range [][2]*csr{{&a.fwd[lt], &b.fwd[lt]}, {&ain, &bin}} {
			x, y := pair[0], pair[1]
			if !slices.Equal(x.off, y.off) || !slices.Equal(x.to, y.to) || !slices.Equal(x.w, y.w) {
				t.Fatalf("link %d: rows %v / %v, want %v / %v", lt, x.to, x.w, y.to, y.w)
			}
		}
	}
}

// inCSR reads g's in-rows of link type lt through InEdges, which builds
// them on first use, into one csr.
func inCSR(g *Graph, lt LinkTypeID) csr {
	c := csr{off: []int64{0}}
	for v := range g.NumEntities() {
		froms, ws := g.InEdges(lt, EntityID(v))
		c.to = append(c.to, froms...)
		c.w = append(c.w, ws...)
		c.off = append(c.off, int64(len(c.to)))
	}
	return c
}

// decodeFuzzRows reads one signed byte at a time (zero once data runs
// out). A negative first byte picks a wrong link-type count; per link type
// Off[0] is the next byte / 64 and each later offset adds the next byte
// % 8, To and W get lengths Off[n] + byte/64, destinations are byte %
// (n+2) and strengths byte % 4. All-zero bytes decode to empty rows.
func decodeFuzzRows(data []byte, numLT, n int) []Rows {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(int8(data[0]))
		data = data[1:]
		return b
	}
	count := numLT
	if k := next(); k < 0 {
		count = -k % (numLT + 2)
	}
	rows := make([]Rows, count)
	for lt := range rows {
		r := Rows{Off: make([]int64, n+1+next()/64)}
		if len(r.Off) == 0 {
			rows[lt] = r
			continue
		}
		r.Off[0] = int64(next() / 64)
		for v := 1; v < len(r.Off); v++ {
			r.Off[v] = r.Off[v-1] + int64(next()%8)
		}
		last := int(r.Off[len(r.Off)-1])
		r.To = make([]EntityID, max(0, last+next()/64))
		r.W = make([]int32, max(0, last+next()/64))
		for i := range r.To {
			r.To[i] = EntityID(next() % (n + 2))
		}
		for i := range r.W {
			r.W[i] = int32(next() % 4)
		}
		rows[lt] = r
	}
	return rows
}

// encodeFuzzRows is the inverse of decodeFuzzRows for well-formed rows
// with at most 7 edges per row and strengths of at most 3.
func encodeFuzzRows(rows []Rows) []byte {
	out := []byte{0}
	for _, r := range rows {
		out = append(out, 0, 0)
		for v := 1; v < len(r.Off); v++ {
			out = append(out, byte(r.Off[v]-r.Off[v-1]))
		}
		out = append(out, 0, 0)
		for _, to := range r.To {
			out = append(out, byte(to))
		}
		for _, w := range r.W {
			out = append(out, byte(w))
		}
	}
	return out
}

// randomFuzzGraph returns base's entities with a few random edges per user
// and link type, in the shape encodeFuzzRows accepts.
func randomFuzzGraph(t testing.TB, base *Graph, seed uint64) *Graph {
	t.Helper()
	rng := randx.New(seed)
	b := NewBuilder(base.Schema())
	users := 0
	for v := 0; v < base.NumEntities(); v++ {
		b.AddEntity(base.EntityType(EntityID(v)), base.Label(EntityID(v)), base.Attrs(EntityID(v))...)
		if base.EntityType(EntityID(v)) == 0 {
			users++
		}
	}
	for lt := 0; lt < 4; lt++ {
		decl := base.Schema().LinkType(LinkTypeID(lt))
		for u := 0; u < users; u++ {
			// No duplicates: a merged strength could exceed 3.
			seen := map[EntityID]bool{}
			for k := rng.Intn(3); k > 0; k-- {
				to := EntityID(rng.Intn(users))
				if lt == 3 {
					to = EntityID(users)
				}
				if seen[to] || to == EntityID(u) && !decl.AllowSelf {
					continue
				}
				seen[to] = true
				w := int32(1)
				if decl.Weighted {
					w = int32(rng.IntRange(1, 3))
				}
				if err := b.AddEdge(LinkTypeID(lt), EntityID(u), to, w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
