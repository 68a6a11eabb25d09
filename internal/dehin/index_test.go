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

// collidingGender returns the gender that gives the tuple (yob, gender)
// the same exactKey as (1980, 1): the key after the first attribute is
// one finalizer round of yob, and the second round starts by XORing in
// gender, so choosing it to cancel the difference between the two yob
// rounds makes the two-attribute keys collide.
func collidingGender(yob int64) int64 {
	return int64(mixKey(0, 1980) ^ mixKey(0, yob) ^ 1)
}

// TestIndexKeyCollisionFiltered builds two auxiliary entities whose
// (yob, gender) tuples differ but share one key, and checks that they are
// two classes chained from that key: the lookup returns only the entity
// with the target's tuple, and a third tuple with the same key finds no
// class. The twin is also the only auxiliary neighbour of one candidate
// in a distance-1 query; in its own class it is never joined with the
// target neighbour, and the query still equals the reference, which
// calls the entity matcher on every pair.
func TestIndexKeyCollisionFiltered(t *testing.T) {
	s := tqq.TargetSchema()
	follow := s.MustLinkTypeID(tqq.LinkFollow)
	b := hin.NewBuilder(s)
	real := b.AddEntity(0, "real", 1980, 1, 100, 2)
	twin := b.AddEntity(0, "twin", 1990, collidingGender(1990), 100, 2)
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
	key := exactKey(aux, real, spec.ExactAttrs)
	if exactKey(aux, twin, spec.ExactAttrs) != key {
		t.Fatal("fixture tuples do not collide")
	}
	tb := hin.NewBuilder(s)
	tReal := tb.AddEntity(0, "t", 1980, 1, 50, 1)
	tHub := tb.AddEntity(0, "t-hub", 1970, 0, 50, 1)
	tTwin := tb.AddEntity(0, "t-twin", 1990, collidingGender(1990), 50, 1)
	tStray := tb.AddEntity(0, "t-stray", 2000, collidingGender(2000), 50, 1)
	if err := tb.AddEdge(follow, tHub, tReal, 1); err != nil {
		t.Fatal(err)
	}
	target, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if exactKey(target, tStray, spec.ExactAttrs) != key {
		t.Fatal("fixture stray tuple does not collide")
	}
	idx, err := buildProfileIndex(aux, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	cReal, cTwin := idx.class[real], idx.class[twin]
	if cReal == cTwin || idx.classOf[key] != cReal || idx.chain[cReal] != cTwin || idx.chain[cTwin] != -1 {
		t.Fatalf("classes real %d, twin %d, classOf[key] %d, chain %v: want two classes chained from the key",
			cReal, cTwin, idx.classOf[key], idx.chain)
	}
	for _, c := range []struct {
		tv   hin.EntityID
		want []hin.EntityID
	}{{tReal, []hin.EntityID{real}}, {tTwin, []hin.EntityID{twin}}, {tStray, nil}} {
		if got := idx.lookup(target, c.tv); !slices.Equal(got, c.want) {
			t.Fatalf("lookup(%s) = %v, want %v", target.Label(c.tv), got, c.want)
		}
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
		t.Fatalf("distance-1 candidates = %v, want %v", got, want)
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
// every worker count the index is identical - same classes, keys, chains
// and tuples, same buckets, same class and grow columns. The fixture spans
// three build shards so the merge really maps shard-local class ids, and
// every shard holds tuples whose keys collide with one another's, so the
// merge also extends chains it did not start. Two entities must share a
// class exactly when their exact-attribute tuples are equal, classes are
// numbered by first occurrence in entity order, each key's chain lists its
// classes in that order, and every bucket ascends by id.
func TestIndexBuildWorkerFingerprint(t *testing.T) {
	s := tqq.TargetSchema()
	rng := randx.New(77)
	b := hin.NewBuilder(s)
	n := 2*shardRows + 123
	for i := 0; i < n; i++ {
		yob, gender := int64(1900+rng.Intn(80)), int64(rng.Intn(2))
		if i%997 == 0 {
			yob = int64(1980 + rng.Intn(6))
			gender = collidingGender(yob)
		}
		b.AddEntity(0, "", yob, gender, int64(rng.Intn(5000)), int64(rng.Intn(4)))
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
	if len(ref.class) != n || len(ref.grow) != n*len(spec.GrowAttrs) {
		t.Fatalf("class column has %d entries, grow column %d, want %d and %d",
			len(ref.class), len(ref.grow), n, n*len(spec.GrowAttrs))
	}
	classOfTuple := make(map[[2]int64]int32)
	fresh := int32(0)
	for v, c := range ref.class {
		id := hin.EntityID(v)
		tuple := [2]int64{aux.Attr(id, tqq.AttrYob), aux.Attr(id, tqq.AttrGender)}
		if prev, ok := classOfTuple[tuple]; ok && prev != c {
			t.Fatalf("entity %d: tuple %v in class %d and %d", v, tuple, prev, c)
		}
		classOfTuple[tuple] = c
		switch {
		case c == fresh:
			fresh++
		case c > fresh:
			t.Fatalf("entity %d opens class %d, want %d (first-occurrence order)", v, c, fresh)
		}
		if !slices.Equal(ref.tuple(c), tuple[:]) {
			t.Fatalf("entity %d: class %d stores tuple %v, want %v", v, c, ref.tuple(c), tuple)
		}
		if k := exactKey(aux, id, spec.ExactAttrs); ref.keys[c] != k {
			t.Fatalf("entity %d: class %d has key %x, want %x", v, c, ref.keys[c], k)
		}
		for k, ai := range spec.GrowAttrs {
			if got := ref.grow[v*len(spec.GrowAttrs)+k]; got != aux.Attr(id, ai) {
				t.Fatalf("entity %d: grow column holds %d for attr %d, want %d", v, got, ai, aux.Attr(id, ai))
			}
		}
	}
	if int(fresh) != len(classOfTuple) || int(fresh) != len(ref.buckets) || int(fresh) != len(ref.chain) {
		t.Fatalf("%d classes in the column, %d tuples, %d buckets, %d chain links",
			fresh, len(classOfTuple), len(ref.buckets), len(ref.chain))
	}
	chained, longest := 0, 0
	for key, first := range ref.classOf {
		length := 0
		for c, prev := first, int32(-1); c >= 0; prev, c = c, ref.chain[c] {
			if ref.keys[c] != key || c <= prev {
				t.Fatalf("key %x: chain reaches class %d (key %x) after %d", key, c, ref.keys[c], prev)
			}
			length++
		}
		chained += length
		longest = max(longest, length)
	}
	if chained != len(ref.chain) || longest < 2 {
		t.Fatalf("chains hold %d of %d classes, longest %d: want all, and a collision", chained, len(ref.chain), longest)
	}
	members := 0
	for c, bucket := range ref.buckets {
		for i, v := range bucket {
			if ref.class[v] != int32(c) {
				t.Fatalf("bucket %d lists entity %d of class %d", c, v, ref.class[v])
			}
			if i > 0 && bucket[i-1] >= v {
				t.Fatalf("bucket %d: entity %d before %d breaks ascending id order", c, bucket[i-1], v)
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
		if !maps.Equal(got.classOf, ref.classOf) || !slices.Equal(got.keys, ref.keys) ||
			!slices.Equal(got.chain, ref.chain) || !slices.Equal(got.tuples, ref.tuples) {
			t.Fatalf("workers=%d: class table differs", workers)
		}
		if !slices.EqualFunc(got.buckets, ref.buckets, slices.Equal) {
			t.Fatalf("workers=%d: buckets differ", workers)
		}
		if !slices.Equal(got.class, ref.class) || !slices.Equal(got.grow, ref.grow) {
			t.Fatalf("workers=%d: class or grow column differs", workers)
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
