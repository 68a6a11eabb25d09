package dehin

import (
	"maps"
	"runtime"
	"slices"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

func buildIndexFixture(tb testing.TB, users int) (*tqq.Dataset, *tqq.Target) {
	tb.Helper()
	cfg := tqq.DefaultConfig(users, 51)
	cfg.Communities = []tqq.CommunitySpec{{Size: max(40, users/20), Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(13))
	if err != nil {
		tb.Fatal(err)
	}
	return d, tgt
}

// profileOnly returns the distance-0 candidate sets of every target
// entity, with and without the candidate index.
func profileOnly(t *testing.T, aux, target *hin.Graph, spec ProfileSpec) (indexed, scanned [][]hin.EntityID) {
	t.Helper()
	withIdx, err := NewAttack(aux, Config{Profile: spec, UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := NewAttack(aux, Config{Profile: spec})
	if err != nil {
		t.Fatal(err)
	}
	for tv := 0; tv < target.NumEntities(); tv++ {
		indexed = append(indexed, withIdx.Deanonymize(target, hin.EntityID(tv)))
		scanned = append(scanned, scan.Deanonymize(target, hin.EntityID(tv)))
	}
	return indexed, scanned
}

// TestIndexOverflowingAuxValue pins exact-attribute values outside int32
// on the auxiliary side: they key like any other int64, and an indexed
// attack finds exactly the candidates a full scan finds.
func TestIndexOverflowingAuxValue(t *testing.T) {
	s := tqq.TargetSchema()
	b := hin.NewBuilder(s)
	huge := b.AddEntity(0, "huge", int64(1)<<40, 1, 100, 2)
	small := b.AddEntity(0, "small", 1980, 1, 100, 2)
	aux, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tb := hin.NewBuilder(s)
	tb.AddEntity(0, "t-small", 1980, 1, 50, 1)
	tb.AddEntity(0, "t-huge", int64(1)<<40, 1, 50, 1)
	target, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	indexed, scanned := profileOnly(t, aux, target, TQQProfile())
	want := [][]hin.EntityID{{small}, {huge}}
	for tv := range want {
		if !slices.Equal(indexed[tv], want[tv]) || !slices.Equal(scanned[tv], want[tv]) {
			t.Fatalf("target %d: index %v, scan %v, want %v", tv, indexed[tv], scanned[tv], want[tv])
		}
	}
}

// TestIndexOverflowingTargetValue pins the other direction: every
// auxiliary value fits in int32 and a target's does not, so no auxiliary
// entity can match it.
func TestIndexOverflowingTargetValue(t *testing.T) {
	aux := buildAux(t)
	tb := hin.NewBuilder(tqq.TargetSchema())
	tb.AddEntity(0, "t", int64(1)<<40, 1, 50, 1)
	target, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	indexed, scanned := profileOnly(t, aux, target, TQQProfile())
	if len(indexed[0]) != 0 || len(scanned[0]) != 0 {
		t.Fatalf("overflowing target value matched: index %v, scan %v", indexed[0], scanned[0])
	}
}

// TestIndexKeyCollisionFiltered builds two auxiliary entities whose
// (yob, gender) tuples differ but share one bucket key, and checks that
// the lookup returns both while the attack keeps only the real match:
// profileCandidates re-checks every bucket entry with the entity matcher.
// The twin is also the only auxiliary neighbour of one candidate in a
// distance-1 query; sharing the real match's class, it is joined with
// the target neighbour, and only the entity matcher can reject the pair.
func TestIndexKeyCollisionFiltered(t *testing.T) {
	s := tqq.TargetSchema()
	follow := s.MustLinkTypeID(tqq.LinkFollow)
	// The key after the first attribute is one finalizer round of yob;
	// choosing the second gender value to cancel the difference between
	// two yob rounds makes the two-attribute keys collide.
	yobs := hin.NewBuilder(s)
	yobs.AddEntity(0, "", 1980, 0, 0, 0)
	yobs.AddEntity(0, "", 1990, 0, 0, 0)
	yg, err := yobs.Build()
	if err != nil {
		t.Fatal(err)
	}
	yobOnly := []int{tqq.AttrYob}
	gender := int64(exactKey(yg, 0, yobOnly) ^ exactKey(yg, 1, yobOnly) ^ 1)

	b := hin.NewBuilder(s)
	real := b.AddEntity(0, "real", 1980, 1, 100, 2)
	twin := b.AddEntity(0, "twin", 1990, gender, 100, 2)
	viaTwin := b.AddEntity(0, "via-twin", 1970, 0, 100, 2)
	viaReal := b.AddEntity(0, "via-real", 1970, 0, 100, 2)
	for _, e := range [][2]hin.EntityID{{viaTwin, twin}, {viaReal, real}} {
		if err := b.AddEdge(follow, e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	aux, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := TQQProfile()
	if exactKey(aux, real, spec.ExactAttrs) != exactKey(aux, twin, spec.ExactAttrs) {
		t.Fatal("fixture tuples do not collide")
	}
	tb := hin.NewBuilder(s)
	tReal := tb.AddEntity(0, "t", 1980, 1, 50, 1)
	tHub := tb.AddEntity(0, "t-hub", 1970, 0, 50, 1)
	if err := tb.AddEdge(follow, tHub, tReal, 1); err != nil {
		t.Fatal(err)
	}
	target, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := buildProfileIndex(aux, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.lookup(target, tReal); len(got) != 2 {
		t.Fatalf("lookup = %v, want both colliding entities", got)
	}
	indexed, scanned := profileOnly(t, aux, target, spec)
	want := []hin.EntityID{real}
	if !slices.Equal(indexed[tReal], want) || !slices.Equal(scanned[tReal], want) {
		t.Fatalf("index %v, scan %v, want %v", indexed[tReal], scanned[tReal], want)
	}

	a, err := NewAttack(aux, Config{MaxDistance: 1, Profile: spec, UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	got := a.Deanonymize(target, tHub)
	if ref := refDeanonymize(a, target, tHub); !slices.Equal(got, ref) {
		t.Fatalf("distance-1 engine %v, reference %v", got, ref)
	}
	if want := []hin.EntityID{viaReal}; !slices.Equal(got, want) {
		t.Fatalf("distance-1 candidates = %v, want %v: a key-equal neighbour pair skipped the entity matcher", got, want)
	}
}

// TestIndexWideExactTuple covers a spec with more than two exact
// attributes: candidate sets equal the full scan's, and a lookup stays
// allocation-free.
func TestIndexWideExactTuple(t *testing.T) {
	d, tgt := buildIndexFixture(t, 600)
	spec := ProfileSpec{
		ExactAttrs: []int{tqq.AttrYob, tqq.AttrGender, tqq.AttrNumTags},
		GrowAttrs:  []int{tqq.AttrTweets},
	}
	indexed, scanned := profileOnly(t, d.Graph, tgt.Graph, spec)
	found := 0
	for tv := range indexed {
		if !slices.Equal(indexed[tv], scanned[tv]) {
			t.Fatalf("target %d: index %v, scan %v", tv, indexed[tv], scanned[tv])
		}
		found += len(indexed[tv])
	}
	if found == 0 {
		t.Fatal("no target had a candidate")
	}
	idx, err := buildProfileIndex(d.Graph, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for tv := 0; tv < tgt.Graph.NumEntities(); tv++ {
			idx.lookup(tgt.Graph, hin.EntityID(tv))
		}
	})
	if allocs != 0 {
		t.Fatalf("three-attribute lookups allocated %.1f times per pass", allocs)
	}
}

// TestIndexBuildWorkerFingerprint pins the parallel build contract: at
// every worker count the index is identical - same classes, same entity
// order within each bucket, same class column. The fixture spans three
// build shards so the merge really maps shard-local class ids; two
// entities must share a class exactly when their exact-attribute keys are
// equal, and classes are numbered by first occurrence in entity order.
func TestIndexBuildWorkerFingerprint(t *testing.T) {
	s := tqq.TargetSchema()
	rng := randx.New(77)
	b := hin.NewBuilder(s)
	n := 2*shardRows + 123
	for i := 0; i < n; i++ {
		b.AddEntity(0, "", int64(1900+rng.Intn(80)), int64(rng.Intn(2)), int64(rng.Intn(5000)), int64(rng.Intn(4)))
	}
	aux, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := TQQProfile()
	ref, err := buildProfileIndex(aux, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.class) != n {
		t.Fatalf("class column has %d entries, want %d", len(ref.class), n)
	}
	keyOf := make(map[int32]uint64)
	fresh := int32(0)
	for v, c := range ref.class {
		k := exactKey(aux, hin.EntityID(v), spec.ExactAttrs)
		if got, ok := ref.classOf[k]; !ok || got != c {
			t.Fatalf("entity %d: class %d, but its key maps to class %d (present %v)", v, c, got, ok)
		}
		if prev, ok := keyOf[c]; ok && prev != k {
			t.Fatalf("entity %d: class %d holds keys %x and %x", v, c, prev, k)
		}
		keyOf[c] = k
		switch {
		case c == fresh:
			fresh++
		case c > fresh:
			t.Fatalf("entity %d opens class %d, want %d (first-occurrence order)", v, c, fresh)
		}
	}
	if int(fresh) != len(ref.buckets) || len(ref.classOf) != len(ref.buckets) {
		t.Fatalf("%d classes in the column, %d buckets, %d keys", fresh, len(ref.buckets), len(ref.classOf))
	}
	members := 0
	for c, bucket := range ref.buckets {
		for i, v := range bucket {
			if ref.class[v] != int32(c) {
				t.Fatalf("bucket %d lists entity %d of class %d", c, v, ref.class[v])
			}
			if i > 0 {
				prev, cur := aux.Attr(bucket[i-1], tqq.AttrTweets), aux.Attr(v, tqq.AttrTweets)
				if prev < cur || prev == cur && bucket[i-1] >= v {
					t.Fatalf("bucket %d: entity %d before %d breaks (tweets desc, id asc)", c, bucket[i-1], v)
				}
			}
		}
		members += len(bucket)
	}
	if members != n {
		t.Fatalf("buckets hold %d entities, want %d", members, n)
	}
	for _, workers := range []int{2, 4, runtime.NumCPU(), 0} {
		got, err := buildProfileIndex(aux, spec, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !maps.Equal(got.classOf, ref.classOf) {
			t.Fatalf("workers=%d: class ids differ", workers)
		}
		if !slices.EqualFunc(got.buckets, ref.buckets, slices.Equal) {
			t.Fatalf("workers=%d: buckets differ", workers)
		}
		if !slices.Equal(got.class, ref.class) {
			t.Fatalf("workers=%d: class column differs", workers)
		}
	}
}

func BenchmarkProfileLookup(b *testing.B) {
	d, tgt := buildIndexFixture(b, 5000)
	idx, err := buildProfileIndex(d.Graph, TQQProfile(), 1)
	if err != nil {
		b.Fatal(err)
	}
	n := tgt.Graph.NumEntities()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.lookup(tgt.Graph, hin.EntityID(i%n))
	}
}
