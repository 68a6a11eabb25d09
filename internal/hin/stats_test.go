package hin

import (
	"math"
	"slices"
	"testing"

	"github.com/hinpriv/dehin/internal/randx"
)

func targetSchema4(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		[]EntityType{{Name: "User", Attrs: []string{"yob"}, SetAttrs: []string{"tags"}}},
		[]LinkType{
			{Name: "follow", From: "User", To: "User"},
			{Name: "mention", From: "User", To: "User", Weighted: true},
			{Name: "retweet", From: "User", To: "User", Weighted: true},
			{Name: "comment", From: "User", To: "User", Weighted: true},
		},
	)
}

func TestDensityEquation4(t *testing.T) {
	s := targetSchema4(t)
	b := NewBuilder(s)
	n := 10
	for i := 0; i < n; i++ {
		b.AddEntity(0, "", int64(i))
	}
	// 18 edges over 4 link types, no self-loop-allowing types:
	// denominator = 4 * 10 * 9 = 360.
	added := 0
	for lt := 0; lt < 3 && added < 18; lt++ {
		for i := 0; i < n && added < 18; i++ {
			j := (i + lt + 1) % n
			if i == j {
				continue
			}
			if err := b.AddEdge(LinkTypeID(lt), EntityID(i), EntityID(j), 1); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}
	g, _ := b.Build()
	d, err := Density(g)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(added) / 360.0
	if math.Abs(d-want) > 1e-12 {
		t.Fatalf("density = %g, want %g", d, want)
	}
}

func TestDensityWithSelfLinkTypes(t *testing.T) {
	s := MustSchema(
		[]EntityType{{Name: "A"}},
		[]LinkType{
			{Name: "x", From: "A", To: "A", AllowSelf: true, Weighted: true},
			{Name: "y", From: "A", To: "A"},
		},
	)
	b := NewBuilder(s)
	for i := 0; i < 5; i++ {
		b.AddEntity(0, "")
	}
	if err := b.AddEdge(0, 2, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g, _ := b.Build()
	d, err := Density(g)
	if err != nil {
		t.Fatal(err)
	}
	// m=1, |L|=2: denominator = 1*25 + 1*20 = 45, edges = 2.
	want := 2.0 / 45.0
	if math.Abs(d-want) > 1e-12 {
		t.Fatalf("density = %g, want %g", d, want)
	}
}

func TestDensityErrors(t *testing.T) {
	s := MustSchema(
		[]EntityType{{Name: "A"}, {Name: "B"}},
		[]LinkType{{Name: "x", From: "A", To: "B"}},
	)
	b := NewBuilder(s)
	b.AddEntity(0, "")
	b.AddEntity(1, "")
	g, _ := b.Build()
	if _, err := Density(g); err == nil {
		t.Fatal("cross-type link density accepted")
	}

	b2 := NewBuilder(userSchema(t))
	b2.AddEntity(0, "", 1, 2)
	g2, _ := b2.Build()
	if _, err := Density(g2); err == nil {
		t.Fatal("single-entity density accepted")
	}
}

func TestMaxEdges(t *testing.T) {
	s := targetSchema4(t)
	if got := MaxEdges(s, 1000); got != 4*1000*999 {
		t.Fatalf("MaxEdges = %d", got)
	}
}

func TestOutDegreeStats(t *testing.T) {
	s := targetSchema4(t)
	b := NewBuilder(s)
	for i := 0; i < 4; i++ {
		b.AddEntity(0, "", int64(i))
	}
	// degrees via follow: 3, 1, 0, 0
	mustEdge := func(f, to EntityID) {
		if err := b.AddEdge(0, f, to, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge(0, 1)
	mustEdge(0, 2)
	mustEdge(0, 3)
	mustEdge(1, 0)
	g, _ := b.Build()
	st := OutDegreeStats(g, 0)
	if st.Min != 0 || st.Max != 3 || math.Abs(st.Mean-1.0) > 1e-12 {
		t.Fatalf("stats = %+v", st)
	}
	if st.P50 != 0 || st.P99 != 3 {
		t.Fatalf("percentiles = %+v", st)
	}
}

func TestCardinalities(t *testing.T) {
	s := targetSchema4(t)
	b := NewBuilder(s)
	years := []int64{1980, 1980, 1990, 2000}
	for i, y := range years {
		id := b.AddEntity(0, "", y)
		b.SetSet("tags", id, make([]int32, i%2+1)) // sizes 1,2,1,2
	}
	if err := b.AddEdge(1, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 1, 2, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 3, 7); err != nil {
		t.Fatal(err)
	}
	g, _ := b.Build()
	if c := AttrCardinality(g, 0, 0); c != 3 {
		t.Fatalf("yob cardinality = %d", c)
	}
	if c := SetSizeCardinality(g, 0, "tags"); c != 2 {
		t.Fatalf("tag-size cardinality = %d", c)
	}
	if c := StrengthCardinality(g, 1); c != 2 {
		t.Fatalf("strength cardinality = %d", c)
	}
	if c := StrengthCardinality(g, 2); c != 0 {
		t.Fatalf("empty link type cardinality = %d", c)
	}
}

// majorityOf builds a graph whose mention links carry the given
// strengths, one link per ordered entity pair, and returns its majority.
func majorityOf(t *testing.T, weights []int32) (int32, int64, bool) {
	t.Helper()
	b := NewBuilder(targetSchema4(t))
	for i := 0; i < 5; i++ {
		b.AddEntity(0, "", 0)
	}
	k := 0
	for i := 0; i < 5 && k < len(weights); i++ {
		for j := 0; j < 5 && k < len(weights); j++ {
			if i == j {
				continue
			}
			if err := b.AddEdge(1, EntityID(i), EntityID(j), weights[k]); err != nil {
				t.Fatal(err)
			}
			k++
		}
	}
	if k != len(weights) {
		t.Fatalf("fixture holds %d links, not %d", k, len(weights))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return MajorityStrength(g, 1)
}

func TestMajorityStrength(t *testing.T) {
	big := int32(denseStrengths + 44)
	for _, tc := range []struct {
		weights []int32
		w       int32
		count   int64
	}{
		{[]int32{7, 7, 7, 2, 5}, 7, 3},
		// The majority lies above the dense bound, beside counted
		// strengths below it.
		{[]int32{big, 7, big, 2, 7, big}, big, 3},
		{[]int32{denseStrengths, denseStrengths - 1, denseStrengths}, denseStrengths, 2},
		{[]int32{1 << 30, 3, 1 << 30}, 1 << 30, 2},
	} {
		w, c, ok := majorityOf(t, tc.weights)
		if !ok || w != tc.w || c != tc.count {
			t.Errorf("majority of %v = %d x%d %v, want %d x%d", tc.weights, w, c, ok, tc.w, tc.count)
		}
	}
	g, err := NewBuilder(targetSchema4(t)).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := MajorityStrength(g, 2); ok {
		t.Fatal("empty link type should report no majority")
	}
}

func TestMajorityStrengthTieBreaksLow(t *testing.T) {
	big := int32(denseStrengths + 44)
	for _, tc := range []struct {
		weights []int32
		w       int32
		count   int64
	}{
		{[]int32{9, 4}, 4, 1},
		// A strength below the dense bound ties one above it.
		{[]int32{big, 3, big, 3}, 3, 2},
		{[]int32{big, 9, denseStrengths - 1, 9, big, denseStrengths - 1}, 9, 2},
		// Two strengths above the bound tie.
		{[]int32{big + 1, big, big + 1, big, 2}, big, 2},
	} {
		w, c, ok := majorityOf(t, tc.weights)
		if !ok || w != tc.w || c != tc.count {
			t.Errorf("tie must break to the smaller strength: majority of %v = %d x%d %v, want %d x%d",
				tc.weights, w, c, ok, tc.w, tc.count)
		}
	}
}

// MajorityStrength counts an edge into the lane of its position in its
// row. Rotating the strengths moves each through every lane, and the tie
// must still go to the smallest strength, counted at or above the dense
// bound of 256 too.
func TestMajorityStrengthAcrossLanes(t *testing.T) {
	for _, tc := range []struct {
		weights []int32
		w       int32
		count   int64
	}{
		{[]int32{5, 5, 3, 3}, 3, 2},
		{[]int32{7, 2, 7, 2, 7, 2, 1}, 2, 3},
		{[]int32{9, 9, 9, 9, 4, 4, 4, 4, 9, 4}, 4, 5},
		{[]int32{256, 9, 256, 9, 257, 257}, 9, 2},
		{[]int32{300, 256, 300, 256, 12}, 256, 2},
		{[]int32{256, 256, 256, 255, 255, 255, 255, 256}, 255, 4},
		{[]int32{256, 256, 256, 1, 255}, 256, 3},
	} {
		for r := range tc.weights {
			rot := append(slices.Clone(tc.weights[r:]), tc.weights[:r]...)
			w, c, ok := majorityOf(t, rot)
			if !ok || w != tc.w || c != tc.count {
				t.Errorf("majority of %v = %d x%d %v, want %d x%d", rot, w, c, ok, tc.w, tc.count)
			}
		}
	}
}

// On random rows with strengths drawn up to twice the dense bound,
// MajorityStrength agrees with a plain count.
func TestMajorityStrengthMatchesCount(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := randx.New(seed)
		users := rng.IntRange(2, 40)
		g := randomMultigraph(t, seed, users, 1, rng.Intn(20*users))
		rows := outRows(g)
		top := int32(rng.IntRange(1, 2*denseStrengths))
		for i := range rows[2].W {
			rows[2].W[i] = int32(rng.IntRange(1, int(top)))
		}
		g, err := WithOutRows(g, rows)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[int32]int64{}
		for _, x := range rows[2].W {
			counts[x]++
		}
		var want int32
		for x, c := range counts {
			if c > counts[want] || c == counts[want] && x < want {
				want = x
			}
		}
		for _, src := range []GraphBackend{g, FromGraph(g)} {
			w, c, ok := MajorityStrength(src, 2)
			if ok != (len(counts) > 0) || ok && (w != want || c != counts[want]) {
				t.Fatalf("seed %d %T: majority %d x%d %v, want %d x%d", seed, src, w, c, ok, want, counts[want])
			}
		}
	}
}

func TestEntitiesOfType(t *testing.T) {
	s := MustSchema(
		[]EntityType{{Name: "U"}, {Name: "T"}},
		[]LinkType{},
	)
	b := NewBuilder(s)
	b.AddEntity(0, "")
	b.AddEntity(1, "")
	b.AddEntity(0, "")
	g, _ := b.Build()
	us := g.EntitiesOfType(0)
	if len(us) != 2 || us[0] != 0 || us[1] != 2 {
		t.Fatalf("EntitiesOfType(U) = %v", us)
	}
	ts := g.EntitiesOfType(1)
	if len(ts) != 1 || ts[0] != 1 {
		t.Fatalf("EntitiesOfType(T) = %v", ts)
	}
}
