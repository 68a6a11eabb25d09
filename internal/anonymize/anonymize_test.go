package anonymize

import (
	"strings"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/tqq"
)

func smallDataset(t testing.TB, users int, seed uint64) *tqq.Dataset {
	t.Helper()
	cfg := tqq.DefaultConfig(users, seed)
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRandomizeIDsPreservesStructure(t *testing.T) {
	d := smallDataset(t, 200, 1)
	g := d.Graph
	res, err := RandomizeIDs(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	ag := res.Graph
	if ag.NumEntities() != g.NumEntities() || ag.NumEdgesTotal() != g.NumEdgesTotal() {
		t.Fatal("size changed")
	}
	// Ground truth: anonymized entity i carries orig's attributes and, up
	// to relabeling, orig's edges.
	for i := 0; i < ag.NumEntities(); i++ {
		orig := res.ToOrig[i]
		a, b := ag.Attrs(hin.EntityID(i)), g.Attrs(orig)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("attrs changed for %d", i)
			}
		}
		if ag.Label(hin.EntityID(i)) == g.Label(orig) {
			t.Fatalf("label %q not anonymized", g.Label(orig))
		}
		ta, tb := ag.Set(tqq.TagsAttr, hin.EntityID(i)), g.Set(tqq.TagsAttr, orig)
		if len(ta) != len(tb) {
			t.Fatalf("tags changed for %d", i)
		}
	}
	// Edges map through ToOrig with identical strengths.
	inv := make(map[hin.EntityID]hin.EntityID)
	for i, o := range res.ToOrig {
		inv[o] = hin.EntityID(i)
	}
	for lt := 0; lt < 4; lt++ {
		for v := 0; v < g.NumEntities(); v++ {
			tos, ws := g.OutEdges(hin.LinkTypeID(lt), hin.EntityID(v))
			for j, to := range tos {
				w, ok := ag.FindEdge(hin.LinkTypeID(lt), inv[hin.EntityID(v)], inv[to])
				if !ok || w != ws[j] {
					t.Fatalf("edge lt=%d %d->%d lost", lt, v, to)
				}
			}
		}
	}
}

func TestRandomizeIDsDeterministic(t *testing.T) {
	d := smallDataset(t, 100, 2)
	r1, err := RandomizeIDs(d.Graph, 5)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RandomizeIDs(d.Graph, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.ToOrig {
		if r1.ToOrig[i] != r2.ToOrig[i] {
			t.Fatal("permutation not deterministic")
		}
		if r1.Graph.Label(hin.EntityID(i)) != r2.Graph.Label(hin.EntityID(i)) {
			t.Fatal("labels not deterministic")
		}
	}
}

func TestCompleteGraphCGA(t *testing.T) {
	d := smallDataset(t, 60, 3)
	g := d.Graph
	cg, err := CompleteGraph(g, CGAOptions{StrengthMax: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(60)
	// Every link type complete: n(n-1) edges each (no self links).
	for lt := 0; lt < 4; lt++ {
		if got := cg.NumEdges(hin.LinkTypeID(lt)); got != n*(n-1) {
			t.Fatalf("lt %d edges = %d, want %d", lt, got, n*(n-1))
		}
	}
	den, err := hin.Density(cg)
	if err != nil {
		t.Fatal(err)
	}
	if den != 1 {
		t.Fatalf("complete graph density = %g", den)
	}
	// Real edges keep their strengths.
	for lt := 0; lt < 4; lt++ {
		for v := 0; v < 60; v++ {
			tos, ws := g.OutEdges(hin.LinkTypeID(lt), hin.EntityID(v))
			for j, to := range tos {
				w, ok := cg.FindEdge(hin.LinkTypeID(lt), hin.EntityID(v), to)
				if !ok || w != ws[j] {
					t.Fatalf("real edge perturbed: lt %d %d->%d", lt, v, to)
				}
			}
		}
	}
	// Fake weighted edges all share one constant per link type.
	for _, name := range []string{tqq.LinkMention, tqq.LinkRetweet, tqq.LinkComment} {
		lt := cg.Schema().MustLinkTypeID(name)
		seen := make(map[int32]int)
		for v := 0; v < 60; v++ {
			tos, ws := cg.OutEdges(lt, hin.EntityID(v))
			for j, to := range tos {
				if _, real := g.FindEdge(lt, hin.EntityID(v), to); !real {
					seen[ws[j]]++
				}
			}
		}
		if len(seen) != 1 {
			t.Fatalf("%s: fake strengths not constant: %v", name, seen)
		}
	}
}

func TestCompleteGraphVaryWeights(t *testing.T) {
	d := smallDataset(t, 60, 4)
	cg, err := CompleteGraph(d.Graph, CGAOptions{VaryWeights: true, StrengthMax: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	lt := cg.Schema().MustLinkTypeID(tqq.LinkMention)
	seen := make(map[int32]int)
	for v := 0; v < 60; v++ {
		_, ws := cg.OutEdges(lt, hin.EntityID(v))
		for _, w := range ws {
			seen[w]++
		}
	}
	if len(seen) < 10 {
		t.Fatalf("varying weights produced only %d distinct strengths", len(seen))
	}
}

func TestCompleteGraphErrors(t *testing.T) {
	d := smallDataset(t, 20, 5)
	if _, err := CompleteGraph(d.Graph, CGAOptions{StrengthMax: 0}); err == nil {
		t.Fatal("StrengthMax 0 accepted")
	}
	big := smallDataset(t, 5001, 5)
	if _, err := CompleteGraph(big.Graph, CGAOptions{StrengthMax: 10}); err == nil {
		t.Fatal("oversized graph accepted")
	}
	cross := hin.MustSchema(
		[]hin.EntityType{{Name: "A"}, {Name: "B"}},
		[]hin.LinkType{{Name: "x", From: "A", To: "B"}},
	)
	b := hin.NewBuilder(cross)
	b.AddEntity(0, "")
	b.AddEntity(1, "")
	cg, _ := b.Build()
	if _, err := CompleteGraph(cg, CGAOptions{StrengthMax: 10}); err == nil {
		t.Fatal("cross-type link accepted")
	}
	// A link type joining A to A cannot complete over a B entity.
	mixed := hin.MustSchema(
		[]hin.EntityType{{Name: "A"}, {Name: "B"}},
		[]hin.LinkType{{Name: "x", From: "A", To: "A", Weighted: true}},
	)
	b = hin.NewBuilder(mixed)
	b.AddEntity(0, "")
	b.AddEntity(1, "")
	mg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompleteGraph(mg, CGAOptions{StrengthMax: 10}); err == nil || !strings.Contains(err.Error(), `link "x"`) {
		t.Fatalf("B entity on an A-to-A link: got %v, want an error naming the link", err)
	}
}

func TestKDegree(t *testing.T) {
	d := smallDataset(t, 150, 6)
	for _, k := range []int{2, 5, 10} {
		ag, err := KDegree(d.Graph, KDegreeOptions{K: k, StrengthMax: 50, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for lt := 0; lt < 4; lt++ {
			if level := DegreeAnonymityLevel(ag, hin.LinkTypeID(lt)); level < k {
				t.Fatalf("k=%d: link type %d only %d-degree anonymous", k, lt, level)
			}
		}
		// Edge addition only: originals survive.
		for lt := 0; lt < 4; lt++ {
			for v := 0; v < 150; v++ {
				tos, _ := d.Graph.OutEdges(hin.LinkTypeID(lt), hin.EntityID(v))
				for _, to := range tos {
					if _, ok := ag.FindEdge(hin.LinkTypeID(lt), hin.EntityID(v), to); !ok {
						t.Fatalf("k=%d: original edge removed", k)
					}
				}
			}
		}
		if ag.NumEdgesTotal() < d.Graph.NumEdgesTotal() {
			t.Fatal("edges vanished")
		}
	}
}

func TestKDegreeErrors(t *testing.T) {
	d := smallDataset(t, 30, 8)
	if _, err := KDegree(d.Graph, KDegreeOptions{K: 0, StrengthMax: 10, Seed: 1}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KDegree(d.Graph, KDegreeOptions{K: 31, StrengthMax: 10, Seed: 1}); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := KDegree(d.Graph, KDegreeOptions{K: 2, StrengthMax: 0, Seed: 1}); err == nil {
		t.Fatal("strengthMax=0 accepted")
	}
}

func TestGeneralizeStrengths(t *testing.T) {
	d := smallDataset(t, 120, 10)
	ag, width, achieved, err := GeneralizeStrengths(d.Graph, 2, 60)
	if err != nil {
		t.Fatal(err)
	}
	if width < 1 {
		t.Fatalf("width = %d", width)
	}
	// Same edge sets, only strengths coarsened (never increased).
	if ag.NumEdgesTotal() != d.Graph.NumEdgesTotal() {
		t.Fatal("generalization changed the edge set")
	}
	for lt := 0; lt < 4; lt++ {
		for v := 0; v < 120; v++ {
			tos, ws := d.Graph.OutEdges(hin.LinkTypeID(lt), hin.EntityID(v))
			for j, to := range tos {
				w, ok := ag.FindEdge(hin.LinkTypeID(lt), hin.EntityID(v), to)
				if !ok {
					t.Fatal("edge vanished")
				}
				if w > ws[j] {
					t.Fatalf("bucketing raised a strength: %d -> %d", ws[j], w)
				}
			}
		}
	}
	if achieved {
		if level := neighborhoodAnonymityLevel(ag); level < 2 {
			t.Fatalf("claimed k=2 but level=%d", level)
		}
	}
}

func TestGeneralizeStrengthsK1IsIdentity(t *testing.T) {
	d := smallDataset(t, 50, 11)
	ag, width, achieved, err := GeneralizeStrengths(d.Graph, 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !achieved || width != 1 {
		t.Fatalf("k=1 should hold immediately: width=%d achieved=%v", width, achieved)
	}
	for lt := 0; lt < 4; lt++ {
		for v := 0; v < 50; v++ {
			tos, ws := d.Graph.OutEdges(hin.LinkTypeID(lt), hin.EntityID(v))
			for j, to := range tos {
				w, _ := ag.FindEdge(hin.LinkTypeID(lt), hin.EntityID(v), to)
				if w != ws[j] {
					t.Fatal("k=1 must not modify strengths")
				}
			}
		}
	}
}

func TestGeneralizeStrengthsErrors(t *testing.T) {
	d := smallDataset(t, 20, 12)
	if _, _, _, err := GeneralizeStrengths(d.Graph, 0, 10); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, _, err := GeneralizeStrengths(d.Graph, 2, 0); err == nil {
		t.Fatal("strengthMax=0 accepted")
	}
}

func TestMeasureUtility(t *testing.T) {
	d := smallDataset(t, 80, 13)
	g := d.Graph
	// Identity: zero loss.
	u, err := MeasureUtility(g, g)
	if err != nil {
		t.Fatal(err)
	}
	if u.TotalLoss() != 0 {
		t.Fatalf("self-comparison loss = %+v", u)
	}
	// CGA: only additions; no removals or weight perturbation.
	cg, err := CompleteGraph(g, CGAOptions{StrengthMax: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	u, err = MeasureUtility(g, cg)
	if err != nil {
		t.Fatal(err)
	}
	if u.EdgesRemoved != 0 || u.WeightL1 != 0 {
		t.Fatalf("CGA should only add: %+v", u)
	}
	wantAdded := 4*int64(80*79) - g.NumEdgesTotal()
	if u.EdgesAdded != wantAdded {
		t.Fatalf("EdgesAdded = %d, want %d", u.EdgesAdded, wantAdded)
	}
	// VW-CGA injects strictly more fake weight mass than CGA with the
	// same cap would on average... at minimum it is positive.
	if u.FakeWeightMass <= 0 {
		t.Fatal("no fake weight mass recorded")
	}
	// Generalization: no edge edits, only weight L1.
	ag, _, _, err := GeneralizeStrengths(g, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	u, err = MeasureUtility(g, ag)
	if err != nil {
		t.Fatal(err)
	}
	if u.EdgesAdded != 0 || u.EdgesRemoved != 0 {
		t.Fatalf("generalization edited edges: %+v", u)
	}
}

func TestMeasureUtilityErrors(t *testing.T) {
	a := smallDataset(t, 20, 1).Graph
	b := smallDataset(t, 30, 1).Graph
	if _, err := MeasureUtility(a, b); err == nil {
		t.Fatal("size mismatch accepted")
	}
}
