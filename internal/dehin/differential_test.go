package dehin

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/hinpriv/dehin/internal/anonymize"
	"github.com/hinpriv/dehin/internal/bipartite"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// refDeanonymize is an independently kept copy of the seed implementation
// of Algorithm 1/2 (fresh map memo, fresh slice allocations, full
// auxiliary scan, package-level Hopcroft-Karp, no degree pruning). The
// differential tests assert the scratch-reusing, signature-pruning engine
// returns identical candidate sets.
func refDeanonymize(a *Attack, target hin.GraphBackend, tv hin.EntityID) []hin.EntityID {
	var profile []hin.EntityID
	for av := 0; av < a.aux.NumEntities(); av++ {
		if a.em(target, a.aux, tv, hin.EntityID(av)) {
			profile = append(profile, hin.EntityID(av))
		}
	}
	if a.cfg.MaxDistance == 0 || len(profile) == 0 {
		return profile
	}
	memo := make(map[refMemoKey]bool)
	out := make([]hin.EntityID, 0, 4)
	for _, av := range profile {
		if refLinkMatch(a, target, a.cfg.MaxDistance, tv, av, memo) {
			out = append(out, av)
		}
	}
	if len(out) == 0 && a.cfg.FallbackProfileOnly {
		return profile
	}
	return out
}

// refMemoKey keys the reference's memo map.
type refMemoKey struct {
	tv, av hin.EntityID
	depth  int32
}

func refLinkMatch(a *Attack, target hin.GraphBackend, n int, tv, av hin.EntityID, memo map[refMemoKey]bool) bool {
	key := refMemoKey{tv, av, int32(n)}
	if r, ok := memo[key]; ok {
		return r
	}
	res := true
	for _, lt := range a.cfg.LinkTypes {
		if !refDirectionMatch(a, target, n, tv, av, lt, false, memo) {
			res = false
			break
		}
		if a.cfg.UseInEdges && !refDirectionMatch(a, target, n, tv, av, lt, true, memo) {
			res = false
			break
		}
	}
	memo[key] = res
	return res
}

func refDirectionMatch(a *Attack, target hin.GraphBackend, n int, tv, av hin.EntityID, lt hin.LinkTypeID, inEdges bool, memo map[refMemoKey]bool) bool {
	var tns []hin.EntityID
	var tws []int32
	var ans []hin.EntityID
	var aws []int32
	tbuf, abuf := &hin.EdgeBuf{}, &hin.EdgeBuf{}
	if inEdges {
		tns, tws = target.InEdgesBuf(tbuf, lt, tv)
		ans, aws = a.aux.InEdgesBuf(abuf, lt, av)
	} else {
		tns, tws = target.OutEdgesBuf(tbuf, lt, tv)
		ans, aws = a.aux.OutEdgesBuf(abuf, lt, av)
	}
	need := len(tns)
	if a.cfg.NeighborTolerance > 0 {
		need = len(tns) - int(math.Ceil(a.cfg.NeighborTolerance*float64(len(tns))))
	}
	if need <= 0 || len(tns) == 0 {
		return true
	}
	if need > len(ans) {
		return false
	}
	adj := make([][]int32, len(tns))
	empties := 0
	for i, tb := range tns {
		for j, ab := range ans {
			if !a.lm(tws[i], aws[j]) {
				continue
			}
			if !a.em(target, a.aux, tb, ab) {
				continue
			}
			if n > 1 && !refLinkMatch(a, target, n-1, tb, ab, memo) {
				continue
			}
			adj[i] = append(adj[i], int32(j))
		}
		if len(adj[i]) == 0 {
			empties++
			if len(tns)-empties < need {
				return false
			}
		}
	}
	g := bipartite.Graph{NLeft: len(tns), NRight: len(ans), Adj: adj}
	if need == len(tns) {
		return bipartite.HasPerfectLeftMatching(g)
	}
	_, _, size := bipartite.HopcroftKarp(g)
	return size >= need
}

// assertMatchesReference builds an attack with cfg on aux, prepares
// release as that attack does, and checks that for each of the first
// targets entities the engine's candidate set equals refDeanonymize's.
func assertMatchesReference(t *testing.T, name string, aux, release hin.GraphBackend, cfg Config, targets int) {
	t.Helper()
	a, err := NewAttack(aux, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := a.PrepareTarget(release)
	if err != nil {
		t.Fatal(err)
	}
	for tv := 0; tv < min(targets, prepared.NumEntities()); tv++ {
		got := a.Deanonymize(prepared, hin.EntityID(tv))
		if want := refDeanonymize(a, prepared, hin.EntityID(tv)); !slices.Equal(got, want) {
			t.Fatalf("%s target %d: engine %v, reference %v", name, tv, got, want)
		}
	}
}

// TestDifferentialEngineMatchesSeed sweeps every engine-relevant flag
// combination over randomized anonymized communities and asserts the
// query engine (degree pruning + scratch reuse + candidate index + the
// neighbour stage's class join) returns candidate sets identical to the
// seed reference implementation, which calls both matchers on every
// neighbour pair. The custom dimension runs the ablations' time-
// synchronized matchers (exact entity and link matchers) over the index.
func TestDifferentialEngineMatchesSeed(t *testing.T) {
	for _, seed := range []uint64{17, 91} {
		cfgGen := tqq.DefaultConfig(900, seed)
		cfgGen.Communities = []tqq.CommunitySpec{{Size: 120, Density: 0.01}}
		d, err := tqq.Generate(cfgGen)
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := tqq.CommunityTarget(d, 0, randx.New(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		anon, err := anonymize.RandomizeIDs(tgt.Graph, seed+2)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := NewIndex(d.Graph, TQQProfile())
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, cfg Config, targets int) {
			assertMatchesReference(t, name, d.Graph, anon.Graph, cfg, targets)
		}
		if seed == 17 {
			// A deep recursion: 256 memo tables, one per depth.
			check("seed=17 distance=256", Config{MaxDistance: 256, Profile: TQQProfile(), UseIndex: true}, 8)
		}
		for _, useIn := range []bool{false, true} {
			for _, tol := range []float64{0, 0.3} {
				for _, fb := range []bool{false, true} {
					for _, rm := range []bool{false, true} {
						for _, v := range []struct{ sharedIdx, custom bool }{
							{false, false}, {true, false}, {false, true}, {true, true},
						} {
							cfg := Config{
								MaxDistance:            2,
								Profile:                TQQProfile(),
								UseInEdges:             useIn,
								NeighborTolerance:      tol,
								FallbackProfileOnly:    fb,
								RemoveMajorityStrength: rm,
							}
							if v.sharedIdx {
								cfg.SharedIndex = shared
							} else {
								cfg.UseIndex = true
							}
							if v.custom {
								cfg.EntityMatch = TQQProfile().ExactMatcher()
								cfg.LinkMatch = ExactLinkMatcher
							}
							check(fmt.Sprintf("seed=%d in=%v tol=%g fb=%v rm=%v shared=%v custom=%v",
								seed, useIn, tol, fb, rm, v.sharedIdx, v.custom), cfg, 40)
						}
					}
				}
			}
		}
	}
}

// TestDifferentialHubRowsMatchSeed checks the engine against the
// reference on rows the plain releases above never have. The Complete
// Graph Anonymity releases of Section 6.2 (CGA and VW-CGA) give every
// target entity 119 neighbours per link type, so each neighbour-graph
// build joins a hub row; they are attacked plain (on the follow links at
// a tolerance of 0.9 or 0.95, so that candidates of modest degree reach
// the join) and re-configured, as Table 4 and Figure 8 attack them. An index whose ProfileSpec has no
// ExactAttrs puts every entity in one class, so each row joins the whole
// auxiliary row. And a release in which one target entity's (yob,
// gender) tuple belongs to no auxiliary entity leaves that neighbour
// without a class.
func TestDifferentialHubRowsMatchSeed(t *testing.T) {
	const seed = 17
	cfgGen := tqq.DefaultConfig(900, seed)
	cfgGen.Communities = []tqq.CommunitySpec{{Size: 120, Density: 0.01}}
	d, err := tqq.Generate(cfgGen)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	anon, err := anonymize.RandomizeIDs(tgt.Graph, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewIndex(d.Graph, TQQProfile())
	if err != nil {
		t.Fatal(err)
	}
	follow := []hin.LinkTypeID{d.Graph.Schema().MustLinkTypeID(tqq.LinkFollow)}
	var completions []*hin.Graph
	for _, vary := range []bool{false, true} {
		cg, err := anonymize.CompleteGraph(anon.Graph, anonymize.CGAOptions{
			VaryWeights: vary, StrengthMax: cfgGen.StrengthMax, Seed: seed + 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		completions = append(completions, cg)
		for _, c := range []struct {
			name string
			cfg  Config
		}{
			{"plain n=1 tol=0.95 follow", Config{MaxDistance: 1, NeighborTolerance: 0.95, LinkTypes: follow}},
			{"plain n=2 tol=0.9 follow", Config{MaxDistance: 2, NeighborTolerance: 0.9, LinkTypes: follow}},
			{"re-configured n=2", Config{MaxDistance: 2, RemoveMajorityStrength: true, FallbackProfileOnly: true}},
			{"re-configured n=2 tol=0.9 in", Config{MaxDistance: 2, NeighborTolerance: 0.9, UseInEdges: true,
				RemoveMajorityStrength: true, FallbackProfileOnly: true}},
		} {
			c.cfg.Profile, c.cfg.SharedIndex = TQQProfile(), shared
			assertMatchesReference(t, fmt.Sprintf("vary=%v %s", vary, c.name), d.Graph, cg, c.cfg, cg.NumEntities())
		}
	}

	oneClass := ProfileSpec{GrowAttrs: TQQProfile().GrowAttrs}
	for _, c := range []struct {
		name    string
		release *hin.Graph
		cfg     Config
	}{
		{"n=2", anon.Graph, Config{MaxDistance: 2}},
		{"n=2 tol=0.3 in", anon.Graph, Config{MaxDistance: 2, UseInEdges: true, NeighborTolerance: 0.3}},
		{"cga n=1 tol=0.95 follow", completions[0], Config{MaxDistance: 1, NeighborTolerance: 0.95, LinkTypes: follow}},
	} {
		c.cfg.Profile, c.cfg.UseIndex = oneClass, true
		a, err := NewAttack(d.Graph, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.index.buckets) != 1 {
			t.Fatalf("an index without exact attributes has %d classes, want 1", len(a.index.buckets))
		}
		assertMatchesReference(t, "one class "+c.name, d.Graph, c.release, c.cfg, 16)
	}

	// The entity most often linked to gets a year of birth no auxiliary
	// user has, so it sits in many target rows with class -1.
	var in []int32
	indeg := make([]int32, anon.Graph.NumEntities())
	for lt := 0; lt < anon.Graph.Schema().NumLinkTypes(); lt++ {
		in = anon.Graph.InDegrees(hin.LinkTypeID(lt), in[:0])
		for v, k := range in {
			indeg[v] += k
		}
	}
	hub := hin.EntityID(slices.Index(indeg, slices.Max(indeg)))
	stray := withAttr(t, anon.Graph, hub, tqq.AttrYob, 1799)
	for _, cfg := range []Config{
		{MaxDistance: 2},
		{MaxDistance: 1, UseInEdges: true, NeighborTolerance: 0.3},
		{MaxDistance: 2, NeighborTolerance: 0.3, RemoveMajorityStrength: true, FallbackProfileOnly: true},
	} {
		cfg.Profile, cfg.SharedIndex = TQQProfile(), shared
		a, err := NewAttack(d.Graph, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c := a.index.entityClass(stray, hub); c != -1 {
			t.Fatalf("the stray tuple has class %d, want -1", c)
		}
		assertMatchesReference(t, fmt.Sprintf("stray tuple n=%d in=%v", cfg.MaxDistance, cfg.UseInEdges),
			d.Graph, stray, cfg, stray.NumEntities())
	}
}

// withAttr returns a copy of g in which entity v's scalar attribute ai is
// val.
func withAttr(t *testing.T, g *hin.Graph, v hin.EntityID, ai int, val int64) *hin.Graph {
	t.Helper()
	schema := g.Schema()
	b := hin.NewBuilder(schema)
	var attrs []int64
	for i := 0; i < g.NumEntities(); i++ {
		id := hin.EntityID(i)
		attrs = g.AppendAttrs(attrs[:0], id)
		if id == v {
			attrs[ai] = val
		}
		b.AddEntity(g.EntityType(id), g.Label(id), attrs...)
		for _, sa := range schema.EntityType(g.EntityType(id)).SetAttrs {
			if set := g.Set(sa, id); len(set) > 0 {
				b.SetSet(sa, id, set)
			}
		}
	}
	buf := &hin.EdgeBuf{}
	for lt := 0; lt < schema.NumLinkTypes(); lt++ {
		for i := 0; i < g.NumEntities(); i++ {
			tos, ws := g.OutEdgesBuf(buf, hin.LinkTypeID(lt), hin.EntityID(i))
			for j, to := range tos {
				if err := b.AddEdge(hin.LinkTypeID(lt), hin.EntityID(i), to, ws[j]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunWorkStealingConcurrent stresses the chunked work-stealing Run
// under many workers and the full flag surface; with -race it doubles as
// the data-race check for scratch pooling and result writes.
func TestRunWorkStealingConcurrent(t *testing.T) {
	cfgGen := tqq.DefaultConfig(1200, 33)
	cfgGen.Communities = []tqq.CommunitySpec{{Size: 150, Density: 0.01}}
	d, err := tqq.Generate(cfgGen)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	base := Config{MaxDistance: 2, UseInEdges: true, NeighborTolerance: 0.2, Profile: TQQProfile(), UseIndex: true}
	serial := base
	serial.Parallelism = 1
	a1, err := NewAttack(d.Graph, serial)
	if err != nil {
		t.Fatal(err)
	}
	wide := base
	wide.Parallelism = 8
	a8, err := NewAttack(d.Graph, wide)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := a1.Run(tgt.Graph, tgt.Orig)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := a8.Run(tgt.Graph, tgt.Orig)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Precision != r8.Precision || r1.ReductionRate != r8.ReductionRate {
		t.Fatalf("work stealing changed results: %v/%v vs %v/%v",
			r1.Precision, r1.ReductionRate, r8.Precision, r8.ReductionRate)
	}
	for i := range r1.PerTarget {
		if r1.PerTarget[i] != r8.PerTarget[i] {
			t.Fatalf("per-target outcome %d differs across worker counts", i)
		}
	}
}

// TestRunEmptyTarget is the NaN regression test: a zero-entity target must
// produce zero metrics, not 0/0.
func TestRunEmptyTarget(t *testing.T) {
	aux := buildAux(t)
	a := newTQQAttack(t, aux, Config{MaxDistance: 1})
	empty, err := hin.NewBuilder(tqq.TargetSchema()).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Precision) || math.IsNaN(res.ReductionRate) {
		t.Fatalf("empty target produced NaN: %+v", res)
	}
	if res.Precision != 0 || res.ReductionRate != 0 || len(res.PerTarget) != 0 {
		t.Fatalf("empty target result = %+v, want zeros", res)
	}
}

// TestDeanonymizeSteadyStateZeroAlloc drives the internal engine with a
// pinned scratch (bypassing the pool, whose GC interaction would make the
// count nondeterministic) and asserts a warmed query allocates nothing.
func TestDeanonymizeSteadyStateZeroAlloc(t *testing.T) {
	cfgGen := tqq.DefaultConfig(2000, 29)
	cfgGen.Communities = []tqq.CommunitySpec{{Size: 200, Density: 0.01}}
	d, err := tqq.Generate(cfgGen)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(19))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{MaxDistance: 2, Profile: TQQProfile(), UseIndex: true},
		{MaxDistance: 2, Profile: TQQProfile(), UseIndex: true, UseInEdges: true, NeighborTolerance: 0.25},
	} {
		a, err := NewAttack(d.Graph, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := &queryScratch{}
		var dst []hin.EntityID
		n := tgt.Graph.NumEntities()
		for tv := 0; tv < n; tv++ { // warm every buffer past its high-water mark
			dst = a.deanonymize(s, dst[:0], tgt.Graph, hin.EntityID(tv), trace.Span{})
		}
		allocs := testing.AllocsPerRun(20, func() {
			for tv := 0; tv < 25; tv++ {
				dst = a.deanonymize(s, dst[:0], tgt.Graph, hin.EntityID(tv), trace.Span{})
			}
		})
		if allocs != 0 {
			t.Errorf("cfg %+v: steady-state query allocated %.1f times per 25-query batch", cfg, allocs)
		}
	}
}

// TestDegreePruningDisabledForExoticConfigs pins the soundness gate: the
// signature must not be built when majority-strength removal or custom
// matchers are configured, and must be built for the plain growth attack.
func TestDegreePruningGate(t *testing.T) {
	aux := buildAux(t)
	plain := newTQQAttack(t, aux, Config{MaxDistance: 1})
	if plain.deg == nil {
		t.Fatal("degree signature missing on the plain growth attack")
	}
	if plain.deg.in != nil {
		t.Fatal("in-degree signature built without UseInEdges")
	}
	both := newTQQAttack(t, aux, Config{MaxDistance: 1, UseInEdges: true})
	if both.deg == nil || both.deg.in == nil {
		t.Fatal("in-degree signature missing with UseInEdges")
	}
	for name, cfg := range map[string]Config{
		"distance 0":      {MaxDistance: 0},
		"remove majority": {MaxDistance: 1, RemoveMajorityStrength: true},
		"custom link":     {MaxDistance: 1, LinkMatch: ExactLinkMatcher},
		"custom entity":   {MaxDistance: 1, EntityMatch: TQQProfile().ExactMatcher()},
	} {
		a := newTQQAttack(t, aux, cfg)
		if a.deg != nil {
			t.Errorf("%s: degree signature built despite the soundness gate", name)
		}
	}
}

// TestProfileSpecValidation covers the NewAttack/NewIndex-time validation
// that replaced lookup's silent empty candidate set.
func TestProfileSpecValidation(t *testing.T) {
	aux := buildAux(t)
	if _, err := NewIndex(aux, ProfileSpec{ExactAttrs: []int{9}}); err == nil {
		t.Fatal("NewIndex accepted an out-of-range exact attr")
	}
	if _, err := NewIndex(aux, ProfileSpec{GrowAttrs: []int{-1}}); err == nil {
		t.Fatal("NewIndex accepted a negative grow attr")
	}
	// Even without an index, a profile-derived matcher would read out of
	// range; NewAttack must reject it up front.
	if _, err := NewAttack(aux, Config{Profile: ProfileSpec{GrowAttrs: []int{12}}}); err == nil {
		t.Fatal("NewAttack accepted an out-of-range profile attr without an index")
	}
	// A custom entity matcher does not consult the profile spec, so a
	// stale spec next to it stays legal.
	any := func(tg, ag hin.GraphBackend, tv, av hin.EntityID) bool { return true }
	if _, err := NewAttack(aux, Config{EntityMatch: any, Profile: ProfileSpec{ExactAttrs: []int{42}}}); err != nil {
		t.Fatalf("custom-matcher attack rejected: %v", err)
	}
	// A shared index answers for the spec it was built from: the
	// candidate lookup and the neighbour stage's class join both read
	// it, so an attack declaring another spec must be refused.
	shared, err := NewIndex(aux, TQQProfile())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAttack(aux, Config{Profile: TQQProfile(), SharedIndex: shared}); err != nil {
		t.Fatalf("matching shared spec rejected: %v", err)
	}
	for name, spec := range map[string]ProfileSpec{
		"exact": {ExactAttrs: []int{tqq.AttrYob}, GrowAttrs: TQQProfile().GrowAttrs},
		"grow":  {ExactAttrs: TQQProfile().ExactAttrs, GrowAttrs: []int{tqq.AttrTweets}},
		"sets":  {ExactAttrs: TQQProfile().ExactAttrs, GrowAttrs: TQQProfile().GrowAttrs, SubsetSets: []string{tqq.TagsAttr}},
	} {
		if _, err := NewAttack(aux, Config{Profile: spec, SharedIndex: shared}); err == nil {
			t.Errorf("%s: NewAttack accepted a SharedIndex built from another ProfileSpec", name)
		}
	}
}

// TestMemoTablePackedVsMap drives one depth's open-addressing memo table
// through collisions, growth, and generation resets, cross-checking every
// answer against a plain map.
func TestMemoTablePackedVsMap(t *testing.T) {
	var mt memoTable
	rng := randx.New(7)
	for gen := 0; gen < 5; gen++ {
		mt.reset()
		ref := map[[2]hin.EntityID]bool{}
		for i := 0; i < 3000; i++ {
			tv := hin.EntityID(rng.Intn(200))
			if rng.Bool(0.5) {
				tv += 1 << 30 // equal to a small id in every lower bit of the key
			}
			av := hin.EntityID(rng.Intn(200))
			k := [2]hin.EntityID{tv, av}
			if rng.Bool(0.5) {
				v := rng.Bool(0.5)
				mt.put(tv, av, v)
				ref[k] = v
			} else {
				got, ok := mt.get(tv, av)
				want, wantOK := ref[k]
				if got != want || ok != wantOK {
					t.Fatalf("gen %d op %d: memo (%v,%v) != map (%v,%v)", gen, i, got, ok, want, wantOK)
				}
			}
		}
	}
}
