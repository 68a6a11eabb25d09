package hin

import (
	"testing"
	"testing/quick"

	"github.com/hinpriv/dehin/internal/randx"
)

// buildToy constructs a small two-link-type graph:
//
//	0 -follow-> 1, 0 -follow-> 2, 1 -follow-> 0
//	0 -mention(5)-> 1, 1 -mention(3)-> 2
func buildToy(t *testing.T) *Graph {
	t.Helper()
	s := userSchema(t)
	b := NewBuilder(s)
	for i := 0; i < 3; i++ {
		b.AddEntity(0, "", int64(1980+i), int64(i%2))
	}
	b.SetSet("tags", 0, []int32{7, 3})
	follow, mention := s.MustLinkTypeID("follow"), s.MustLinkTypeID("mention")
	for _, e := range []struct{ f, to EntityID }{{0, 1}, {0, 2}, {1, 0}} {
		if err := b.AddEdge(follow, e.f, e.to, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEdge(mention, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(mention, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := buildToy(t)
	if g.NumEntities() != 3 {
		t.Fatalf("NumEntities = %d", g.NumEntities())
	}
	if g.NumEdges(0) != 3 || g.NumEdges(1) != 2 || g.NumEdgesTotal() != 5 {
		t.Fatalf("edge counts: %d %d %d", g.NumEdges(0), g.NumEdges(1), g.NumEdgesTotal())
	}
	if g.Attr(1, 0) != 1981 || g.Attr(2, 1) != 0 {
		t.Fatalf("attrs wrong: %v %v", g.Attrs(1), g.Attrs(2))
	}
	if g.NumAttrs(0) != 2 {
		t.Fatalf("NumAttrs = %d", g.NumAttrs(0))
	}
}

func TestGraphSets(t *testing.T) {
	g := buildToy(t)
	tags := g.Set("tags", 0)
	if len(tags) != 2 || tags[0] != 3 || tags[1] != 7 {
		t.Fatalf("tags not sorted/copied: %v", tags)
	}
	if got := g.Set("tags", 1); len(got) != 0 {
		t.Fatalf("entity 1 should have no tags, got %v", got)
	}
	if got := g.Set("unknown", 0); got != nil {
		t.Fatalf("unknown set attr should be nil, got %v", got)
	}
}

func TestOutInEdges(t *testing.T) {
	g := buildToy(t)
	tos, ws := g.OutEdges(0, 0)
	if len(tos) != 2 || tos[0] != 1 || tos[1] != 2 || ws[0] != 1 {
		t.Fatalf("follow out of 0: %v %v", tos, ws)
	}
	if g.OutDegree(0, 0) != 2 || g.InDegree(0, 0) != 1 {
		t.Fatalf("degrees: out %d in %d", g.OutDegree(0, 0), g.InDegree(0, 0))
	}
	froms, ws2 := g.InEdges(1, 2)
	if len(froms) != 1 || froms[0] != 1 || ws2[0] != 3 {
		t.Fatalf("mention into 2: %v %v", froms, ws2)
	}
}

func TestBulkDegrees(t *testing.T) {
	g := buildToy(t)
	for lt := 0; lt < g.Schema().NumLinkTypes(); lt++ {
		out := g.OutDegrees(LinkTypeID(lt), nil)
		in := g.InDegrees(LinkTypeID(lt), nil)
		if len(out) != g.NumEntities() || len(in) != g.NumEntities() {
			t.Fatalf("lt %d: bulk degree lengths %d/%d", lt, len(out), len(in))
		}
		for v := 0; v < g.NumEntities(); v++ {
			if int(out[v]) != g.OutDegree(LinkTypeID(lt), EntityID(v)) {
				t.Fatalf("lt %d entity %d: OutDegrees %d != OutDegree %d",
					lt, v, out[v], g.OutDegree(LinkTypeID(lt), EntityID(v)))
			}
			if int(in[v]) != g.InDegree(LinkTypeID(lt), EntityID(v)) {
				t.Fatalf("lt %d entity %d: InDegrees %d != InDegree %d",
					lt, v, in[v], g.InDegree(LinkTypeID(lt), EntityID(v)))
			}
		}
	}
	// Appends to the tail of an existing slice.
	pre := []int32{42}
	got := g.OutDegrees(0, pre)
	if len(got) != 1+g.NumEntities() || got[0] != 42 {
		t.Fatalf("OutDegrees did not append: %v", got)
	}
}

func TestFindEdge(t *testing.T) {
	g := buildToy(t)
	if w, ok := g.FindEdge(1, 0, 1); !ok || w != 5 {
		t.Fatalf("FindEdge(mention,0,1) = %d %v", w, ok)
	}
	if _, ok := g.FindEdge(1, 2, 0); ok {
		t.Fatal("found non-existent edge")
	}
	if _, ok := g.FindEdge(0, 2, 1); ok {
		t.Fatal("found non-existent follow edge")
	}
}

func TestDuplicateEdgesMerge(t *testing.T) {
	s := userSchema(t)
	b := NewBuilder(s)
	b.AddEntity(0, "", 1980, 0)
	b.AddEntity(0, "", 1981, 1)
	mention := s.MustLinkTypeID("mention")
	follow := s.MustLinkTypeID("follow")
	for i := 0; i < 3; i++ {
		if err := b.AddEdge(mention, 0, 1, int32(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(follow, 0, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g.FindEdge(mention, 0, 1); !ok || w != 6 {
		t.Fatalf("weighted duplicates must sum: got %d, %v", w, ok)
	}
	if g.NumEdges(mention) != 1 {
		t.Fatalf("mention edges = %d, want 1", g.NumEdges(mention))
	}
	if w, ok := g.FindEdge(follow, 0, 1); !ok || w != 1 {
		t.Fatalf("unweighted duplicates must collapse to 1: got %d, %v", w, ok)
	}
	if g.NumEdges(follow) != 1 {
		t.Fatalf("follow edges = %d, want 1", g.NumEdges(follow))
	}
}

func TestBuilderErrors(t *testing.T) {
	s := userSchema(t)
	b := NewBuilder(s)
	v0 := b.AddEntity(0, "", 1980, 0)
	v1 := b.AddEntity(0, "", 1981, 1)
	follow := s.MustLinkTypeID("follow")
	mention := s.MustLinkTypeID("mention")
	cases := []struct {
		name string
		err  error
	}{
		{"unknown link type", b.AddEdge(99, v0, v1, 1)},
		{"bad source", b.AddEdge(follow, -1, v1, 1)},
		{"bad destination", b.AddEdge(follow, v0, 99, 1)},
		{"self loop forbidden", b.AddEdge(follow, v0, v0, 1)},
		{"zero weight", b.AddEdge(mention, v0, v1, 0)},
		{"negative weight", b.AddEdge(mention, v0, v1, -2)},
		{"unweighted with weight", b.AddEdge(follow, v0, v1, 3)},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestBuilderEndpointTypeCheck(t *testing.T) {
	s := MustSchema(
		[]EntityType{{Name: "User"}, {Name: "Tweet"}},
		[]LinkType{{Name: "post", From: "User", To: "Tweet"}},
	)
	b := NewBuilder(s)
	u := b.AddEntity(0, "")
	tw := b.AddEntity(1, "")
	u2 := b.AddEntity(0, "")
	if err := b.AddEdge(0, u, tw, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := b.AddEdge(0, tw, u, 1); err == nil {
		t.Fatal("reversed endpoint types accepted")
	}
	// u2 is a second User, so the edge is not also a self-loop.
	if err := b.AddEdge(0, u, u2, 1); err == nil {
		t.Fatal("wrong destination type accepted")
	}
}

func TestBuilderPanics(t *testing.T) {
	s := userSchema(t)
	for name, fn := range map[string]func(){
		"unknown entity type": func() { NewBuilder(s).AddEntity(9, "") },
		"wrong attr count":    func() { NewBuilder(s).AddEntity(0, "", 1) },
		"set on bad entity":   func() { NewBuilder(s).SetSet("tags", 0, []int32{1}) },
		"unknown set attr": func() {
			b := NewBuilder(s)
			b.AddEntity(0, "", 1, 2)
			b.SetSet("nope", 0, []int32{1})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBuildTwicePanicsOrErrors(t *testing.T) {
	b := NewBuilder(userSchema(t))
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("second Build must fail")
	}
}

func TestSelfLoopAllowed(t *testing.T) {
	s := MustSchema(
		[]EntityType{{Name: "A"}},
		[]LinkType{{Name: "self", From: "A", To: "A", AllowSelf: true, Weighted: true}},
	)
	b := NewBuilder(s)
	v := b.AddEntity(0, "")
	if err := b.AddEdge(0, v, v, 4); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g.FindEdge(0, v, v); !ok || w != 4 {
		t.Fatalf("self edge: %d %v", w, ok)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := buildToy(t)
	sub, orig, err := g.Induced([]EntityID{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumEntities() != 2 {
		t.Fatalf("NumEntities = %d", sub.NumEntities())
	}
	if orig[0] != 2 || orig[1] != 0 {
		t.Fatalf("orig map = %v", orig)
	}
	// Only edges with both endpoints inside survive: 0->2 follow.
	if sub.NumEdgesTotal() != 1 {
		t.Fatalf("NumEdgesTotal = %d", sub.NumEdgesTotal())
	}
	if w, ok := sub.FindEdge(0, 1, 0); !ok || w != 1 {
		t.Fatalf("relabeled follow edge: %d %v", w, ok)
	}
	// Attributes and sets travel.
	if sub.Attr(1, 0) != 1980 {
		t.Fatalf("attr: %d", sub.Attr(1, 0))
	}
	if tags := sub.Set("tags", 1); len(tags) != 2 {
		t.Fatalf("tags lost: %v", tags)
	}
}

func TestInducedErrors(t *testing.T) {
	g := buildToy(t)
	if _, _, err := g.Induced([]EntityID{0, 0}); err == nil {
		t.Fatal("duplicate ids accepted")
	}
	if _, _, err := g.Induced([]EntityID{99}); err == nil {
		t.Fatal("out-of-range id accepted")
	}
}

func TestInducedPermutationRelabels(t *testing.T) {
	g := buildToy(t)
	perm := []EntityID{2, 0, 1}
	rg, orig, err := g.Induced(perm)
	if err != nil {
		t.Fatal(err)
	}
	if rg.NumEdgesTotal() != g.NumEdgesTotal() {
		t.Fatalf("permutation lost edges: %d vs %d", rg.NumEdgesTotal(), g.NumEdgesTotal())
	}
	// Old edge 0-mention(5)->1 becomes new 1 -> 2.
	if w, ok := rg.FindEdge(1, 1, 2); !ok || w != 5 {
		t.Fatalf("relabeled mention: %d %v", w, ok)
	}
	for newID, oldID := range orig {
		if rg.Attr(EntityID(newID), 0) != g.Attr(oldID, 0) {
			t.Fatalf("attr mismatch at new %d / old %d", newID, oldID)
		}
	}
}

// Property: for random graphs, CSR invariants hold - rows sorted, forward
// and reverse views agree, and total degree equals edge count.
func TestCSRInvariantsProperty(t *testing.T) {
	s := userSchema(t)
	f := func(seed uint64) bool {
		rng := randx.New(seed)
		n := rng.IntRange(2, 40)
		b := NewBuilder(s)
		for i := 0; i < n; i++ {
			b.AddEntity(0, "", int64(1900+rng.Intn(100)), int64(rng.Intn(3)))
		}
		mention := s.MustLinkTypeID("mention")
		edges := rng.Intn(4 * n)
		for i := 0; i < edges; i++ {
			f := EntityID(rng.Intn(n))
			to := EntityID(rng.Intn(n))
			if f == to {
				continue
			}
			if err := b.AddEdge(mention, f, to, int32(rng.IntRange(1, 9))); err != nil {
				return false
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var outSum, inSum int
		for v := 0; v < n; v++ {
			tos, ws := g.OutEdges(mention, EntityID(v))
			if len(tos) != len(ws) {
				return false
			}
			for i := 1; i < len(tos); i++ {
				if tos[i] <= tos[i-1] {
					return false // unsorted or duplicate destination
				}
			}
			outSum += len(tos)
			inSum += g.InDegree(mention, EntityID(v))
			// Every forward edge appears in the reverse adjacency with the
			// same weight.
			for i, to := range tos {
				froms, rws := g.InEdges(mention, to)
				found := false
				for j, fr := range froms {
					if fr == EntityID(v) && rws[j] == ws[i] {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return int64(outSum) == g.NumEdges(mention) && outSum == inSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Induced with the identity permutation is an exact copy.
func TestInducedIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := randx.New(seed)
		s := MustSchema(
			[]EntityType{{Name: "U", Attrs: []string{"x"}}},
			[]LinkType{{Name: "e", From: "U", To: "U", Weighted: true}},
		)
		n := rng.IntRange(2, 25)
		b := NewBuilder(s)
		for i := 0; i < n; i++ {
			b.AddEntity(0, "", int64(rng.Intn(5)))
		}
		for i := 0; i < 3*n; i++ {
			f, to := EntityID(rng.Intn(n)), EntityID(rng.Intn(n))
			if f != to {
				_ = b.AddEdge(0, f, to, int32(rng.IntRange(1, 4)))
			}
		}
		g, _ := b.Build()
		ids := make([]EntityID, n)
		for i := range ids {
			ids[i] = EntityID(i)
		}
		cp, _, err := g.Induced(ids)
		if err != nil {
			return false
		}
		if cp.NumEdgesTotal() != g.NumEdgesTotal() {
			return false
		}
		for v := 0; v < n; v++ {
			t1, w1 := g.OutEdges(0, EntityID(v))
			t2, w2 := cp.OutEdges(0, EntityID(v))
			if len(t1) != len(t2) {
				return false
			}
			for i := range t1 {
				if t1[i] != t2[i] || w1[i] != w2[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMergedStrengthOverflow(t *testing.T) {
	s := MustSchema(
		[]EntityType{{Name: "U"}},
		[]LinkType{{Name: "e", From: "U", To: "U", Weighted: true}},
	)
	b := NewBuilder(s)
	b.AddEntity(0, "")
	b.AddEntity(0, "")
	// Two near-max weights merge past int32.
	if err := b.AddEdge(0, 0, 1, 1<<31-1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 0, 1, 1<<31-1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("strength overflow must fail the build")
	}
}

func TestSchemaTooManyTypes(t *testing.T) {
	ets := make([]EntityType, 251)
	for i := range ets {
		ets[i] = EntityType{Name: string(rune('A'+i%26)) + string(rune('0'+i/26))}
	}
	if _, err := NewSchema(ets, nil); err == nil {
		t.Fatal("251 entity types accepted")
	}
}

func TestEntityWithNoAttrs(t *testing.T) {
	s := MustSchema([]EntityType{{Name: "N"}}, nil)
	b := NewBuilder(s)
	v := b.AddEntity(0, "plain")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumAttrs(v) != 0 || len(g.Attrs(v)) != 0 {
		t.Fatal("attr-less entity should have empty attrs")
	}
	if g.Label(v) != "plain" {
		t.Fatal("label lost")
	}
}

func TestBuilderNumEntities(t *testing.T) {
	b := NewBuilder(userSchema(t))
	if b.NumEntities() != 0 {
		t.Fatal("fresh builder not empty")
	}
	b.AddEntity(0, "", 1, 2)
	b.AddEntity(0, "", 3, 4)
	if b.NumEntities() != 2 {
		t.Fatalf("NumEntities = %d", b.NumEntities())
	}
}

func TestEmptyGraphBuild(t *testing.T) {
	g, err := NewBuilder(userSchema(t)).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEntities() != 0 || g.NumEdgesTotal() != 0 {
		t.Fatal("empty build not empty")
	}
	if got := g.EntitiesOfType(0); len(got) != 0 {
		t.Fatal("phantom entities")
	}
}
