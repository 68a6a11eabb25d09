package dehin

import (
	"reflect"
	"testing"

	"github.com/hinpriv/dehin/internal/anonymize"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// buildAux constructs a small hand-checked auxiliary network:
//
//	id  yob   gender tweets tags
//	0   1980  1      100    {1,2}   "Ada"
//	1   1980  1      100    {1}     "Bob"   (profile twin of Ada except tags)
//	2   1985  2      50     {}      "Cyn"
//	3   1970  1      80     {3}     "Dan"
//	4   1980  1      200    {1,2,9} "Eve"   (grown twin of Ada)
//
// Links: Ada -mention(5)-> Cyn, Ada -follow-> Dan,
//
//	Eve -mention(7)-> Cyn, Eve -follow-> Dan, Eve -follow-> Bob,
//	Bob -mention(5)-> Dan.
func buildAux(t testing.TB) *hin.Graph {
	t.Helper()
	s := tqq.TargetSchema()
	b := hin.NewBuilder(s)
	add := func(label string, yob, gender, tweets int64, tags []int32) hin.EntityID {
		id := b.AddEntity(0, label, yob, gender, tweets, int64(len(tags)))
		if len(tags) > 0 {
			b.SetSet(tqq.TagsAttr, id, tags)
		}
		return id
	}
	ada := add("Ada", 1980, 1, 100, []int32{1, 2})
	bob := add("Bob", 1980, 1, 100, []int32{1})
	cyn := add("Cyn", 1985, 2, 50, nil)
	dan := add("Dan", 1970, 1, 80, []int32{3})
	eve := add("Eve", 1980, 1, 200, []int32{1, 2, 9})
	mention := s.MustLinkTypeID(tqq.LinkMention)
	follow := s.MustLinkTypeID(tqq.LinkFollow)
	for _, e := range []struct {
		lt       hin.LinkTypeID
		from, to hin.EntityID
		w        int32
	}{
		{mention, ada, cyn, 5},
		{follow, ada, dan, 1},
		{mention, eve, cyn, 7},
		{follow, eve, dan, 1},
		{follow, eve, bob, 1},
		{mention, bob, dan, 5},
	} {
		if err := b.AddEdge(e.lt, e.from, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// buildTarget builds the anonymized target: Ada (A3H) with her links into
// anonymized Cyn (F8P) and Dan.
func buildTarget(t testing.TB) *hin.Graph {
	t.Helper()
	s := tqq.TargetSchema()
	b := hin.NewBuilder(s)
	a3h := b.AddEntity(0, "A3H", 1980, 1, 100, 2)
	b.SetSet(tqq.TagsAttr, a3h, []int32{1, 2})
	f8p := b.AddEntity(0, "F8P", 1985, 2, 50, 0)
	m7r := b.AddEntity(0, "M7R", 1970, 1, 80, 1)
	b.SetSet(tqq.TagsAttr, m7r, []int32{3})
	if err := b.AddEdge(s.MustLinkTypeID(tqq.LinkMention), a3h, f8p, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(s.MustLinkTypeID(tqq.LinkFollow), a3h, m7r, 1); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTQQAttack(t testing.TB, aux *hin.Graph, cfg Config) *Attack {
	t.Helper()
	cfg.Profile = TQQProfile()
	cfg.UseIndex = true
	a, err := NewAttack(aux, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMotivatingExample(t *testing.T) {
	// Section 1.1: A3H's profile plus mention/follow neighborhood single
	// out Ada even though Bob shares her (yob, gender, tweets) and Eve is
	// a grown superset-profile twin.
	aux := buildAux(t)
	target := buildTarget(t)
	a := newTQQAttack(t, aux, Config{MaxDistance: 1})

	got := a.Deanonymize(target, 0)
	// Profile stage keeps Ada (exact) and Eve (grown: tweets 200>=100,
	// tags superset); Bob lacks tag 2. Link stage keeps both: Eve
	// mentions Cyn with strength 7>=5 and follows Dan. Both are
	// legitimate under growth semantics.
	if len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("distance-1 candidates = %v, want [Ada Eve]", got)
	}

	// With exact matchers (time-synchronized datasets), only Ada remains:
	// unique matching established.
	exact := Config{
		MaxDistance: 1,
		Profile:     TQQProfile(),
		EntityMatch: TQQProfile().ExactMatcher(),
		LinkMatch:   ExactLinkMatcher,
		UseIndex:    true,
	}
	ae, err := NewAttack(aux, exact)
	if err != nil {
		t.Fatal(err)
	}
	got = ae.Deanonymize(target, 0)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("exact candidates = %v, want [Ada]", got)
	}
}

func TestDistanceZeroIsProfileOnly(t *testing.T) {
	aux := buildAux(t)
	target := buildTarget(t)
	a := newTQQAttack(t, aux, Config{MaxDistance: 0})
	got := a.Deanonymize(target, 0)
	if len(got) != 2 {
		t.Fatalf("profile-only candidates = %v, want Ada and Eve", got)
	}
}

func TestNeighborProfileDisambiguates(t *testing.T) {
	// F8P (the mentionee) has a specific profile; if the target instead
	// mentioned someone like Dan, Ada would no longer match.
	aux := buildAux(t)
	s := tqq.TargetSchema()
	b := hin.NewBuilder(s)
	v := b.AddEntity(0, "X", 1980, 1, 100, 2)
	b.SetSet(tqq.TagsAttr, v, []int32{1, 2})
	nb := b.AddEntity(0, "Y", 1999, 0, 1, 0) // profile matching nobody in aux
	if err := b.AddEdge(s.MustLinkTypeID(tqq.LinkMention), v, nb, 5); err != nil {
		t.Fatal(err)
	}
	target, _ := b.Build()
	a := newTQQAttack(t, aux, Config{MaxDistance: 1})
	if got := a.Deanonymize(target, 0); len(got) != 0 {
		t.Fatalf("impossible neighborhood still matched: %v", got)
	}
}

func TestDistanceTwoUsesNeighborsOfNeighbors(t *testing.T) {
	// Two aux users share profiles and distance-1 neighborhoods but their
	// neighbors' neighborhoods differ; distance 2 separates them.
	s := tqq.TargetSchema()
	b := hin.NewBuilder(s)
	add := func(yob int64, tweets int64) hin.EntityID {
		return b.AddEntity(0, "", yob, 1, tweets, 0)
	}
	// aux: u0 -m(2)-> x0 -m(9)-> z (z yob 1950)
	//      u1 -m(2)-> x1 -m(9)-> w (w yob 1960)
	u0, u1 := add(1980, 10), add(1980, 10)
	x0, x1 := add(1990, 20), add(1990, 20)
	z, w := add(1950, 5), add(1960, 5)
	mention := s.MustLinkTypeID(tqq.LinkMention)
	for _, e := range []struct {
		f, to hin.EntityID
		w     int32
	}{{u0, x0, 2}, {u1, x1, 2}, {x0, z, 9}, {x1, w, 9}} {
		if err := b.AddEdge(mention, e.f, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	aux, _ := b.Build()

	// Target: u0's two-hop chain, anonymized.
	tb := hin.NewBuilder(s)
	tu := tb.AddEntity(0, "", 1980, 1, 10, 0)
	tx := tb.AddEntity(0, "", 1990, 1, 20, 0)
	tz := tb.AddEntity(0, "", 1950, 1, 5, 0)
	if err := tb.AddEdge(mention, tu, tx, 2); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddEdge(mention, tx, tz, 9); err != nil {
		t.Fatal(err)
	}
	target, _ := tb.Build()

	a1 := newTQQAttack(t, aux, Config{MaxDistance: 1})
	if got := a1.Deanonymize(target, 0); len(got) != 2 {
		t.Fatalf("distance 1 should be ambiguous: %v", got)
	}
	a2 := newTQQAttack(t, aux, Config{MaxDistance: 2})
	got := a2.Deanonymize(target, 0)
	if len(got) != 1 || got[0] != u0 {
		t.Fatalf("distance 2 candidates = %v, want [u0]", got)
	}
}

func TestBipartiteContention(t *testing.T) {
	// The target has two distinct neighbors with identical profiles and
	// strengths; a candidate with only ONE such neighbor must fail (it
	// cannot saturate both), a candidate with two must pass.
	s := tqq.TargetSchema()
	b := hin.NewBuilder(s)
	add := func(yob int64) hin.EntityID { return b.AddEntity(0, "", yob, 1, 10, 0) }
	good, bad := add(1980), add(1980)
	n1, n2, n3 := add(1990), add(1990), add(1990)
	mention := s.MustLinkTypeID(tqq.LinkMention)
	// good mentions two 1990-ers; bad mentions one (twice the strength
	// doesn't help).
	for _, e := range []struct {
		f, to hin.EntityID
		w     int32
	}{{good, n1, 3}, {good, n2, 3}, {bad, n3, 6}} {
		if err := b.AddEdge(mention, e.f, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	aux, _ := b.Build()

	tb := hin.NewBuilder(s)
	tu := tb.AddEntity(0, "", 1980, 1, 10, 0)
	ta := tb.AddEntity(0, "", 1990, 1, 10, 0)
	tb2 := tb.AddEntity(0, "", 1990, 1, 10, 0)
	if err := tb.AddEdge(mention, tu, ta, 3); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddEdge(mention, tu, tb2, 3); err != nil {
		t.Fatal(err)
	}
	target, _ := tb.Build()

	a := newTQQAttack(t, aux, Config{MaxDistance: 1})
	got := a.Deanonymize(target, 0)
	if len(got) != 1 || got[0] != good {
		t.Fatalf("candidates = %v, want [good]", got)
	}
}

func TestRunOnAnonymizedSample(t *testing.T) {
	// End-to-end: dense community sampled, KDDA-anonymized, attacked
	// against the full dataset. Precision at distance 1 must be high and
	// the true counterpart must always be among the candidates.
	cfg := tqq.DefaultConfig(3000, 41)
	cfg.Communities = []tqq.CommunitySpec{{Size: 300, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(8)
	tgt, err := tqq.CommunityTarget(d, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	anon, err := anonymize.RandomizeIDs(tgt.Graph, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Compose ground truth: anonymized i -> target ToOrig[i] -> dataset.
	truth := make([]hin.EntityID, len(anon.ToOrig))
	for i, t0 := range anon.ToOrig {
		truth[i] = tgt.Orig[t0]
	}
	a := newTQQAttack(t, d.Graph, Config{MaxDistance: 1})
	res, err := a.Run(anon.Graph, truth)
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision < 0.7 {
		t.Fatalf("precision = %g, want >= 0.7 on a density-0.01 community", res.Precision)
	}
	if res.ReductionRate < 0.99 {
		t.Fatalf("reduction rate = %g", res.ReductionRate)
	}
	// Recall sanity: the truth is never eliminated.
	for tv := 0; tv < anon.Graph.NumEntities(); tv++ {
		c := a.Deanonymize(anon.Graph, hin.EntityID(tv))
		found := false
		for _, v := range c {
			if v == truth[tv] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("true counterpart of target %d eliminated", tv)
		}
	}
}

func TestCandidatesShrinkWithDistance(t *testing.T) {
	cfg := tqq.DefaultConfig(1500, 14)
	cfg.Communities = []tqq.CommunitySpec{{Size: 200, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var prev []int
	for n := 0; n <= 3; n++ {
		a := newTQQAttack(t, d.Graph, Config{MaxDistance: n})
		sizes := make([]int, 50)
		for tv := 0; tv < 50; tv++ {
			sizes[tv] = len(a.Deanonymize(tgt.Graph, hin.EntityID(tv)))
		}
		if prev != nil {
			for tv := range sizes {
				if sizes[tv] > prev[tv] {
					t.Fatalf("distance %d grew candidate set for %d: %d -> %d",
						n, tv, prev[tv], sizes[tv])
				}
			}
		}
		prev = sizes
	}
}

func TestMoreLinkTypesNeverGrowCandidates(t *testing.T) {
	cfg := tqq.DefaultConfig(1500, 15)
	cfg.Communities = []tqq.CommunitySpec{{Size: 200, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	subsets := [][]hin.LinkTypeID{{0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}}
	var prev []int
	for _, lts := range subsets {
		a := newTQQAttack(t, d.Graph, Config{MaxDistance: 1, LinkTypes: lts})
		sizes := make([]int, 40)
		for tv := 0; tv < 40; tv++ {
			sizes[tv] = len(a.Deanonymize(tgt.Graph, hin.EntityID(tv)))
		}
		if prev != nil {
			for tv := range sizes {
				if sizes[tv] > prev[tv] {
					t.Fatalf("adding link types grew candidates for %d", tv)
				}
			}
		}
		prev = sizes
	}
}

func TestGrowthRecall(t *testing.T) {
	// Attack against a grown auxiliary network: candidates must still
	// contain the truth for every target (growth-tolerant matchers).
	cfg := tqq.DefaultConfig(1200, 77)
	cfg.Communities = []tqq.CommunitySpec{{Size: 150, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := tqq.DefaultGrowth(5)
	gcfg.NewUsers = 200
	grown, err := tqq.Grow(d, cfg, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(4))
	if err != nil {
		t.Fatal(err)
	}
	a := newTQQAttack(t, grown.Graph, Config{MaxDistance: 2})
	for tv := 0; tv < tgt.Graph.NumEntities(); tv++ {
		c := a.Deanonymize(tgt.Graph, hin.EntityID(tv))
		found := false
		for _, v := range c {
			if v == tgt.Orig[tv] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("growth eliminated the true counterpart of %d", tv)
		}
	}
}

func TestRemoveMajorityStrengthEdges(t *testing.T) {
	s := tqq.TargetSchema()
	b := hin.NewBuilder(s)
	for i := 0; i < 4; i++ {
		b.AddEntity(0, "", 1980, 1, 10, 0)
	}
	mention := s.MustLinkTypeID(tqq.LinkMention)
	follow := s.MustLinkTypeID(tqq.LinkFollow)
	for _, e := range []struct {
		f, to hin.EntityID
		w     int32
	}{{0, 1, 7}, {0, 2, 7}, {1, 2, 3}, {2, 3, 7}} {
		if err := b.AddEdge(mention, e.f, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEdge(follow, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g, _ := b.Build()
	rg, err := RemoveMajorityStrengthEdges(g)
	if err != nil {
		t.Fatal(err)
	}
	// Majority mention strength 7 removed; the lone 3 survives.
	if rg.NumEdges(mention) != 1 {
		t.Fatalf("mention edges after removal = %d", rg.NumEdges(mention))
	}
	if _, ok := rg.FindEdge(mention, 1, 2); !ok {
		t.Fatal("non-majority edge removed")
	}
	// Unweighted follow: every edge carries the majority value 1.
	if rg.NumEdges(follow) != 0 {
		t.Fatalf("follow edges after removal = %d", rg.NumEdges(follow))
	}
}

func TestVWCGAFallsBackToProfileOnly(t *testing.T) {
	cfg := tqq.DefaultConfig(1200, 31)
	cfg.Communities = []tqq.CommunitySpec{{Size: 150, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(6))
	if err != nil {
		t.Fatal(err)
	}
	vw, err := anonymize.CompleteGraph(tgt.Graph, anonymize.CGAOptions{
		VaryWeights: true, StrengthMax: cfg.StrengthMax, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Re-configured DeHIN with fallback: every target degrades to its
	// profile-only candidate set, so results equal the distance-0 attack.
	aFall := newTQQAttack(t, d.Graph, Config{
		MaxDistance:            2,
		RemoveMajorityStrength: true,
		FallbackProfileOnly:    true,
	})
	a0 := newTQQAttack(t, d.Graph, Config{MaxDistance: 0})
	resFall, err := aFall.Run(vw, tgt.Orig)
	if err != nil {
		t.Fatal(err)
	}
	res0, err := a0.Run(tgt.Graph, tgt.Orig)
	if err != nil {
		t.Fatal(err)
	}
	if resFall.Precision != res0.Precision {
		t.Fatalf("VW-CGA precision %g != distance-0 precision %g",
			resFall.Precision, res0.Precision)
	}
	// Without fallback the attack returns empty candidate sets.
	aStrict := newTQQAttack(t, d.Graph, Config{
		MaxDistance:            2,
		RemoveMajorityStrength: true,
	})
	resStrict, err := aStrict.Run(vw, tgt.Orig)
	if err != nil {
		t.Fatal(err)
	}
	if resStrict.Precision != 0 {
		t.Fatalf("strict attack on VW-CGA should fail entirely, got %g", resStrict.Precision)
	}
}

func TestCGARemovalRecoversAttack(t *testing.T) {
	// Section 6.2: against CGA, re-configured DeHIN still de-anonymizes,
	// with (at most) slight degradation versus attacking the bare sample.
	cfg := tqq.DefaultConfig(1500, 55)
	cfg.Communities = []tqq.CommunitySpec{{Size: 200, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	cga, err := anonymize.CompleteGraph(tgt.Graph, anonymize.CGAOptions{
		StrengthMax: cfg.StrengthMax, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := newTQQAttack(t, d.Graph, Config{
		MaxDistance:            1,
		RemoveMajorityStrength: true,
		FallbackProfileOnly:    true,
	})
	res, err := a.Run(cga, tgt.Orig)
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision < 0.4 {
		t.Fatalf("re-configured DeHIN vs CGA precision = %g, want substantial", res.Precision)
	}
}

func TestRunErrors(t *testing.T) {
	aux := buildAux(t)
	a := newTQQAttack(t, aux, Config{MaxDistance: 1})
	if _, err := a.Run(buildTarget(t), []hin.EntityID{0}); err == nil {
		t.Fatal("truth size mismatch accepted")
	}
}

// Run is PrepareTarget then RunPrepared: on a CGA release the two give
// equal results, every per-target outcome included, for the plain attack
// (whose preparation is the identity) and for the re-configured one.
func TestRunPreparedMatchesRun(t *testing.T) {
	cfg := tqq.DefaultConfig(1500, 55)
	cfg.Communities = []tqq.CommunitySpec{{Size: 150, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	cga, err := anonymize.CompleteGraph(tgt.Graph, anonymize.CGAOptions{
		StrengthMax: cfg.StrengthMax, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Config{
		{MaxDistance: 2},
		{MaxDistance: 2, RemoveMajorityStrength: true, FallbackProfileOnly: true},
	} {
		a := newTQQAttack(t, d.Graph, c)
		want, err := a.Run(cga, tgt.Orig)
		if err != nil {
			t.Fatal(err)
		}
		prepared, err := a.PrepareTarget(cga)
		if err != nil {
			t.Fatal(err)
		}
		if stripped := prepared != hin.GraphBackend(cga); stripped != c.RemoveMajorityStrength {
			t.Fatalf("%+v: PrepareTarget stripped the release: %t", c, stripped)
		}
		got, err := a.RunPrepared(prepared, tgt.Orig)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: RunPrepared(PrepareTarget(t)) = %.4f/%.4f, Run(t) = %.4f/%.4f",
				c, got.Precision, got.ReductionRate, want.Precision, want.ReductionRate)
		}
	}
}

func TestRunPreparedErrors(t *testing.T) {
	a := newTQQAttack(t, buildAux(t), Config{MaxDistance: 1, RemoveMajorityStrength: true})
	prepared, err := a.PrepareTarget(buildTarget(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunPrepared(prepared, []hin.EntityID{0}); err == nil {
		t.Fatal("truth size mismatch accepted")
	}
}

func TestNewAttackErrors(t *testing.T) {
	aux := buildAux(t)
	if _, err := NewAttack(aux, Config{MaxDistance: -1}); err == nil {
		t.Fatal("negative distance accepted")
	}
	if _, err := NewAttack(aux, Config{LinkTypes: []hin.LinkTypeID{77}}); err == nil {
		t.Fatal("bad link type accepted")
	}
	if _, err := NewAttack(aux, Config{UseIndex: true, Profile: ProfileSpec{ExactAttrs: []int{99}}}); err == nil {
		t.Fatal("bad profile attr accepted")
	}
}

func TestNoIndexScanEquivalence(t *testing.T) {
	// Index and full scan agree on candidates.
	cfg := tqq.DefaultConfig(800, 23)
	cfg.Communities = []tqq.CommunitySpec{{Size: 100, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(9))
	if err != nil {
		t.Fatal(err)
	}
	withIdx := newTQQAttack(t, d.Graph, Config{MaxDistance: 1})
	noIdx, err := NewAttack(d.Graph, Config{MaxDistance: 1, Profile: TQQProfile()})
	if err != nil {
		t.Fatal(err)
	}
	for tv := 0; tv < 30; tv++ {
		c1 := withIdx.Deanonymize(tgt.Graph, hin.EntityID(tv))
		c2 := noIdx.Deanonymize(tgt.Graph, hin.EntityID(tv))
		if len(c1) != len(c2) {
			t.Fatalf("target %d: index %v vs scan %v", tv, c1, c2)
		}
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("target %d: index %v vs scan %v", tv, c1, c2)
			}
		}
	}
}

func TestUseInEdgesTightens(t *testing.T) {
	cfg := tqq.DefaultConfig(1200, 61)
	cfg.Communities = []tqq.CommunitySpec{{Size: 150, Density: 0.005}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(11))
	if err != nil {
		t.Fatal(err)
	}
	plain := newTQQAttack(t, d.Graph, Config{MaxDistance: 1})
	both := newTQQAttack(t, d.Graph, Config{MaxDistance: 1, UseInEdges: true})
	for tv := 0; tv < 40; tv++ {
		c1 := len(plain.Deanonymize(tgt.Graph, hin.EntityID(tv)))
		c2 := len(both.Deanonymize(tgt.Graph, hin.EntityID(tv)))
		if c2 > c1 {
			t.Fatalf("in-edge matching grew candidates for %d: %d -> %d", tv, c1, c2)
		}
	}
}

func BenchmarkDeanonymizeDistance1(b *testing.B) {
	cfg := tqq.DefaultConfig(5000, 3)
	cfg.Communities = []tqq.CommunitySpec{{Size: 500, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(1))
	if err != nil {
		b.Fatal(err)
	}
	a := newTQQAttack(b, d.Graph, Config{MaxDistance: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Deanonymize(tgt.Graph, hin.EntityID(i%500))
	}
}

func TestNeighborToleranceRecoversFromBadEdge(t *testing.T) {
	// Target has two neighbors; one of them matches nothing in the
	// auxiliary data (a rewired fake). Strict matching rejects the true
	// candidate; 50% tolerance accepts it.
	s := tqq.TargetSchema()
	b := hin.NewBuilder(s)
	add := func(yob int64) hin.EntityID { return b.AddEntity(0, "", yob, 1, 10, 0) }
	u := add(1980)
	x := add(1990)
	if err := b.AddEdge(s.MustLinkTypeID(tqq.LinkMention), u, x, 3); err != nil {
		t.Fatal(err)
	}
	aux, _ := b.Build()

	tb := hin.NewBuilder(s)
	tu := tb.AddEntity(0, "", 1980, 1, 10, 0)
	tx := tb.AddEntity(0, "", 1990, 1, 10, 0)
	fake := tb.AddEntity(0, "", 1930, 2, 9999, 0) // matches nobody
	mention := s.MustLinkTypeID(tqq.LinkMention)
	if err := tb.AddEdge(mention, tu, tx, 3); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddEdge(mention, tu, fake, 7); err != nil {
		t.Fatal(err)
	}
	target, _ := tb.Build()

	strict := newTQQAttack(t, aux, Config{MaxDistance: 1})
	if got := strict.Deanonymize(target, 0); len(got) != 0 {
		t.Fatalf("strict matching should reject: %v", got)
	}
	tolerant := newTQQAttack(t, aux, Config{MaxDistance: 1, NeighborTolerance: 0.5})
	got := tolerant.Deanonymize(target, 0)
	if len(got) != 1 || got[0] != u {
		t.Fatalf("tolerant candidates = %v, want [u]", got)
	}
}

func TestNeighborToleranceZeroIsStrict(t *testing.T) {
	cfg := tqq.DefaultConfig(800, 91)
	cfg.Communities = []tqq.CommunitySpec{{Size: 100, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(12))
	if err != nil {
		t.Fatal(err)
	}
	a0 := newTQQAttack(t, d.Graph, Config{MaxDistance: 2})
	aTol := newTQQAttack(t, d.Graph, Config{MaxDistance: 2, NeighborTolerance: 0})
	for tv := 0; tv < 30; tv++ {
		c0 := a0.Deanonymize(tgt.Graph, hin.EntityID(tv))
		c1 := aTol.Deanonymize(tgt.Graph, hin.EntityID(tv))
		if len(c0) != len(c1) {
			t.Fatalf("tolerance 0 diverged from default at %d", tv)
		}
	}
}

func TestNeighborToleranceWidensCandidates(t *testing.T) {
	cfg := tqq.DefaultConfig(800, 92)
	cfg.Communities = []tqq.CommunitySpec{{Size: 100, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(13))
	if err != nil {
		t.Fatal(err)
	}
	strict := newTQQAttack(t, d.Graph, Config{MaxDistance: 1})
	loose := newTQQAttack(t, d.Graph, Config{MaxDistance: 1, NeighborTolerance: 0.8})
	for tv := 0; tv < 40; tv++ {
		cs := len(strict.Deanonymize(tgt.Graph, hin.EntityID(tv)))
		cl := len(loose.Deanonymize(tgt.Graph, hin.EntityID(tv)))
		if cl < cs {
			t.Fatalf("tolerance shrank candidates at %d: %d -> %d", tv, cs, cl)
		}
	}
}

func TestNewAttackToleranceErrors(t *testing.T) {
	aux := buildAux(t)
	for _, tol := range []float64{-0.1, 1, 1.5} {
		if _, err := NewAttack(aux, Config{NeighborTolerance: tol}); err == nil {
			t.Errorf("tolerance %g accepted", tol)
		}
	}
}

func TestSharedIndexAndAux(t *testing.T) {
	aux := buildAux(t)
	idx, err := NewIndex(aux, TQQProfile())
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAttack(aux, Config{MaxDistance: 1, Profile: TQQProfile(), SharedIndex: idx})
	if err != nil {
		t.Fatal(err)
	}
	if a.Aux() != aux {
		t.Fatal("Aux() returned a different graph")
	}
	// Shared index agrees with a private one.
	b, err := NewAttack(aux, Config{MaxDistance: 1, Profile: TQQProfile(), UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	target := buildTarget(t)
	c1 := a.Deanonymize(target, 0)
	c2 := b.Deanonymize(target, 0)
	if len(c1) != len(c2) {
		t.Fatalf("shared index diverged: %v vs %v", c1, c2)
	}
	// An index built from another graph is rejected.
	other := buildTarget(t)
	if _, err := NewAttack(other, Config{Profile: TQQProfile(), SharedIndex: idx}); err == nil {
		t.Fatal("foreign index accepted")
	}
}

func TestSubsetSetMatchers(t *testing.T) {
	// Exercise ProfileSpec.SubsetSets (not used by TQQProfile because tag
	// IDs are anonymized, but part of the matcher API for datasets where
	// set attributes ARE joinable).
	s := tqq.TargetSchema()
	b := hin.NewBuilder(s)
	mk := func(tags []int32) hin.EntityID {
		id := b.AddEntity(0, "", 1980, 1, 10, int64(len(tags)))
		if len(tags) > 0 {
			b.SetSet(tqq.TagsAttr, id, tags)
		}
		return id
	}
	tgt := mk([]int32{3, 5})
	superset := mk([]int32{3, 5, 9})
	disjoint := mk([]int32{1, 2})
	exactTwin := mk([]int32{3, 5})
	g, _ := b.Build()

	spec := ProfileSpec{
		ExactAttrs: []int{tqq.AttrYob, tqq.AttrGender},
		SubsetSets: []string{tqq.TagsAttr},
	}
	grow := spec.GrowthMatcher()
	exact := spec.ExactMatcher()
	if !grow(g, g, tgt, superset) {
		t.Fatal("growth matcher must accept a tag superset")
	}
	if grow(g, g, tgt, disjoint) {
		t.Fatal("growth matcher accepted disjoint tags")
	}
	if exact(g, g, tgt, superset) {
		t.Fatal("exact matcher accepted a strict superset")
	}
	if !exact(g, g, tgt, exactTwin) {
		t.Fatal("exact matcher rejected an identical tag set")
	}
}

func TestRunParallelismDeterministic(t *testing.T) {
	cfg := tqq.DefaultConfig(1000, 71)
	cfg.Communities = []tqq.CommunitySpec{{Size: 120, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(21))
	if err != nil {
		t.Fatal(err)
	}
	a1 := newTQQAttack(t, d.Graph, Config{MaxDistance: 1, Parallelism: 1})
	a4 := newTQQAttack(t, d.Graph, Config{MaxDistance: 1, Parallelism: 4})
	r1, err := a1.Run(tgt.Graph, tgt.Orig)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := a4.Run(tgt.Graph, tgt.Orig)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Precision != r4.Precision || r1.ReductionRate != r4.ReductionRate {
		t.Fatalf("parallelism changed results: %v vs %v", r1.Precision, r4.Precision)
	}
	for i := range r1.PerTarget {
		if r1.PerTarget[i] != r4.PerTarget[i] {
			t.Fatalf("per-target outcome %d differs", i)
		}
	}
}

// TestKCopyDoesNotStopDeHIN demonstrates why released-graph-internal
// k-anonymity (k-automorphism / k-symmetry via disjoint copies) is the
// wrong invariant: every copy of a user joins to the same real individual
// in the auxiliary network, so DeHIN's precision is unchanged.
func TestKCopyDoesNotStopDeHIN(t *testing.T) {
	cfg := tqq.DefaultConfig(1500, 83)
	cfg.Communities = []tqq.CommunitySpec{{Size: 150, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(23))
	if err != nil {
		t.Fatal(err)
	}
	a := newTQQAttack(t, d.Graph, Config{MaxDistance: 1})
	base, err := a.Run(tgt.Graph, tgt.Orig)
	if err != nil {
		t.Fatal(err)
	}
	kc, err := anonymize.KCopy(tgt.Graph, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Truth for the copied release: copy c of target v is still tgt.Orig[v].
	truth := make([]hin.EntityID, len(kc.ToOrig))
	for i, orig := range kc.ToOrig {
		truth[i] = tgt.Orig[orig]
	}
	res, err := a.Run(kc.Graph, truth)
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision < base.Precision-1e-9 {
		t.Fatalf("k-copy reduced DeHIN precision: %g -> %g (it must not)",
			base.Precision, res.Precision)
	}
}
