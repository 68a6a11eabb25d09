package hin

import (
	"strings"
	"testing"
)

// eventSchema mirrors the paper's Figure 2 (trimmed to User/Tweet/Comment):
// users post tweets and comments, tweets and comments mention users,
// retweets link tweets to tweets, comments attach to tweets, and users
// follow users.
func eventSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		[]EntityType{
			{Name: "User", Attrs: []string{"yob", "gender"}},
			{Name: "Tweet"},
			{Name: "Comment"},
		},
		[]LinkType{
			{Name: "post", From: "User", To: "Tweet"},
			{Name: "postc", From: "User", To: "Comment"},
			{Name: "mention", From: "Tweet", To: "User"},
			{Name: "mentionc", From: "Comment", To: "User"},
			{Name: "retweet", From: "Tweet", To: "Tweet"},
			{Name: "commenton", From: "Comment", To: "Tweet"},
			{Name: "follow", From: "User", To: "User"},
		},
	)
}

// buildEventGraph creates:
//
//	u0 posts t0; t0 mentions u1 and u2; t0 retweets t1 which u1 posted
//	u0 posts c0; c0 mentions u1; c0 comments-on t1 (posted by u1)
//	u0 follows u1; u1 follows u0
func buildEventGraph(t *testing.T) *Graph {
	t.Helper()
	s := eventSchema(t)
	b := NewBuilder(s)
	u0 := b.AddEntity(0, "u0", 1980, 1)
	u1 := b.AddEntity(0, "u1", 1985, 2)
	u2 := b.AddEntity(0, "u2", 1970, 1)
	t0 := b.AddEntity(1, "t0")
	t1 := b.AddEntity(1, "t1")
	c0 := b.AddEntity(2, "c0")
	lt := func(name string) LinkTypeID { return s.MustLinkTypeID(name) }
	edges := []struct {
		l        string
		from, to EntityID
	}{
		{"post", u0, t0}, {"post", u1, t1},
		{"postc", u0, c0},
		{"mention", t0, u1}, {"mention", t0, u2},
		{"mentionc", c0, u1},
		{"retweet", t0, t1},
		{"commenton", c0, t1},
		{"follow", u0, u1}, {"follow", u1, u0},
	}
	for _, e := range edges {
		if err := b.AddEdge(lt(e.l), e.from, e.to, 1); err != nil {
			t.Fatalf("%s %d->%d: %v", e.l, e.from, e.to, err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// tqqPaths are the paper's Section 3 target meta paths for the trimmed
// schema: mention via tweet or comment, retweet via tweet pairs, comment
// via comment-on-tweet, and follow reproduced directly.
func tqqPaths() []MetaPath {
	return []MetaPath{
		{Name: "mention", Steps: []Step{{Link: "post"}, {Link: "mention"}}},
		{Name: "mention", Steps: []Step{{Link: "postc"}, {Link: "mentionc"}}},
		{Name: "retweet", Steps: []Step{{Link: "post"}, {Link: "retweet"}, {Link: "post", Reverse: true}}},
		{Name: "comment", Steps: []Step{{Link: "postc"}, {Link: "commenton"}, {Link: "post", Reverse: true}}},
		{Name: "follow", Steps: []Step{{Link: "follow"}}},
	}
}

func TestMetaPathValidate(t *testing.T) {
	s := eventSchema(t)
	for _, p := range tqqPaths() {
		if err := p.validate(s, "User"); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	bad := []MetaPath{
		{Name: "", Steps: []Step{{Link: "follow"}}},
		{Name: "x"},
		{Name: "x", Steps: []Step{{Link: "nope"}}},
		{Name: "x", Steps: []Step{{Link: "mention"}}},              // starts at Tweet
		{Name: "x", Steps: []Step{{Link: "post"}}},                 // ends at Tweet
		{Name: "x", Steps: []Step{{Link: "post"}, {Link: "post"}}}, // does not compose
	}
	for _, p := range bad {
		if err := p.validate(s, "User"); err == nil {
			t.Errorf("%s: expected error", p)
		}
	}
}

func TestMetaPathString(t *testing.T) {
	p := MetaPath{Name: "retweet", Steps: []Step{{Link: "post"}, {Link: "retweet"}, {Link: "post", Reverse: true}}}
	want := "retweet: post > retweet > ~post"
	if got := p.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestProjectSchema(t *testing.T) {
	s := eventSchema(t)
	ps, err := ProjectSchema(s, "User", tqqPaths())
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumEntityTypes() != 1 || ps.NumLinkTypes() != 4 {
		t.Fatalf("projected: %d entity types, %d link types", ps.NumEntityTypes(), ps.NumLinkTypes())
	}
	mention := ps.MustLinkTypeID("mention")
	if !ps.LinkType(mention).Weighted {
		t.Fatal("short-circuited mention must be weighted")
	}
	follow := ps.MustLinkTypeID("follow")
	if ps.LinkType(follow).Weighted {
		t.Fatal("reproduced single-hop unweighted follow must stay unweighted")
	}
	if !strings.Contains(ps.String(), "mention: User -> User") {
		t.Fatalf("projected schema wrong:\n%s", ps)
	}
}

func TestProjectSchemaErrors(t *testing.T) {
	s := eventSchema(t)
	if _, err := ProjectSchema(s, "Nope", tqqPaths()); err == nil {
		t.Fatal("unknown target accepted")
	}
	if _, err := ProjectSchema(s, "User", nil); err == nil {
		t.Fatal("empty paths accepted")
	}
	if _, err := ProjectSchema(s, "User", []MetaPath{{Name: "x", Steps: []Step{{Link: "post"}}}}); err == nil {
		t.Fatal("non-returning path accepted")
	}
}

func TestProjectGraph(t *testing.T) {
	g := buildEventGraph(t)
	pg, origs, err := ProjectGraph(g, "User", tqqPaths())
	if err != nil {
		t.Fatal(err)
	}
	if pg.NumEntities() != 3 {
		t.Fatalf("projected entities = %d", pg.NumEntities())
	}
	if len(origs) != 3 || origs[0] != 0 {
		t.Fatalf("origs = %v", origs)
	}
	ps := pg.Schema()
	mention := ps.MustLinkTypeID("mention")
	retweet := ps.MustLinkTypeID("retweet")
	comment := ps.MustLinkTypeID("comment")
	follow := ps.MustLinkTypeID("follow")

	// u0 mentions u1 twice (once via tweet t0, once via comment c0).
	if w, ok := pg.FindEdge(mention, 0, 1); !ok || w != 2 {
		t.Fatalf("mention u0->u1 = %d %v, want 2 (tweet + comment path)", w, ok)
	}
	// u0 mentions u2 once.
	if w, ok := pg.FindEdge(mention, 0, 2); !ok || w != 1 {
		t.Fatalf("mention u0->u2 = %d %v", w, ok)
	}
	// u0 retweeted t1 (posted by u1) once via t0.
	if w, ok := pg.FindEdge(retweet, 0, 1); !ok || w != 1 {
		t.Fatalf("retweet u0->u1 = %d %v", w, ok)
	}
	// u0 commented on t1 (posted by u1) once via c0.
	if w, ok := pg.FindEdge(comment, 0, 1); !ok || w != 1 {
		t.Fatalf("comment u0->u1 = %d %v", w, ok)
	}
	// Follow reproduced in both directions.
	if _, ok := pg.FindEdge(follow, 0, 1); !ok {
		t.Fatal("follow u0->u1 missing")
	}
	if _, ok := pg.FindEdge(follow, 1, 0); !ok {
		t.Fatal("follow u1->u0 missing")
	}
	// No fabricated links.
	if d := pg.OutDegree(mention, 2); d != 0 {
		t.Fatalf("u2 should mention nobody, out-degree %d", d)
	}
	// User attributes preserved.
	if pg.Attr(1, 0) != 1985 || pg.Attr(1, 1) != 2 {
		t.Fatalf("u1 attrs lost: %v", pg.Attrs(1))
	}
	if pg.Label(2) != "u2" {
		t.Fatalf("label lost: %q", pg.Label(2))
	}
}

func TestProjectGraphWeightedHopMultiplies(t *testing.T) {
	// A weighted hop contributes its strength as a path-instance
	// multiplier.
	s := MustSchema(
		[]EntityType{{Name: "U"}, {Name: "M"}},
		[]LinkType{
			{Name: "a", From: "U", To: "M", Weighted: true},
			{Name: "b", From: "M", To: "U", Weighted: true},
		},
	)
	b := NewBuilder(s)
	u0 := b.AddEntity(0, "")
	u1 := b.AddEntity(0, "")
	m := b.AddEntity(1, "")
	if err := b.AddEdge(0, u0, m, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, m, u1, 2); err != nil {
		t.Fatal(err)
	}
	g, _ := b.Build()
	pg, _, err := ProjectGraph(g, "U", []MetaPath{{Name: "ab", Steps: []Step{{Link: "a"}, {Link: "b"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := pg.FindEdge(0, 0, 1); !ok || w != 6 {
		t.Fatalf("weighted path product = %d %v, want 6", w, ok)
	}
}

func TestProjectGraphDropsSelfPathsWhenForbidden(t *testing.T) {
	// Single-hop reproduced follow forbids self loops; a multi-hop path
	// returning to its origin is kept as a self edge.
	g := buildEventGraph(t)
	// u1 posted t1; make t0 (posted by u0) retweet t1 and also t1 retweet
	// t1? Instead verify u0's retweet of its own tweet: add path where u0
	// retweets t0 (its own tweet).
	s := g.Schema()
	b := NewBuilder(s)
	u0 := b.AddEntity(0, "u0", 1980, 1)
	t0 := b.AddEntity(1, "t0")
	t1 := b.AddEntity(1, "t1")
	lt := func(n string) LinkTypeID { return s.MustLinkTypeID(n) }
	for _, e := range []struct {
		l        string
		from, to EntityID
	}{{"post", u0, t0}, {"post", u0, t1}, {"retweet", t0, t1}} {
		if err := b.AddEdge(lt(e.l), e.from, e.to, 1); err != nil {
			t.Fatal(err)
		}
	}
	g2, _ := b.Build()
	pg, _, err := ProjectGraph(g2, "User", []MetaPath{
		{Name: "retweet", Steps: []Step{{Link: "post"}, {Link: "retweet"}, {Link: "post", Reverse: true}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := pg.FindEdge(0, 0, 0); !ok || w != 1 {
		t.Fatalf("self retweet via multi-hop path should be kept: %d %v", w, ok)
	}
}
