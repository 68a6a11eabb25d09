package hin

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/hinpriv/dehin/internal/randx"
)

// linkBuilder returns a rowsSchema builder holding users users (every
// other one tagged) and one tag entity.
func linkBuilder(t testing.TB, users int) *Builder {
	t.Helper()
	b := NewBuilder(rowsSchema(t))
	for i := 0; i < users; i++ {
		v := b.AddEntity(0, fmt.Sprintf("u%d", i), int64(1900+i%100))
		if i%2 == 0 {
			b.SetSet("tags", v, []int32{int32(i % 7), 3})
		}
	}
	b.AddEntity(1, "t")
	return b
}

// randomLinks draws m valid links per link type of rowsSchema over the
// entities of linkBuilder(users), with strengths from 1 to 4 on weighted
// types. Few users and many links make duplicate edges common.
func randomLinks(seed uint64, users, m int) [][]Link {
	rng := randx.New(seed)
	links := make([][]Link, 4)
	for lt := range links {
		for len(links[lt]) < m {
			l := Link{From: EntityID(rng.Intn(users)), To: EntityID(rng.Intn(users)), W: 1}
			switch lt {
			case 0, 1:
				if l.From == l.To {
					continue
				}
			case 3:
				l.To = EntityID(users)
			}
			if lt == 1 || lt == 2 {
				l.W = int32(rng.IntRange(1, 4))
			}
			links[lt] = append(links[lt], l)
		}
	}
	return links
}

// TestAddLinksMatchesAddEdge sends the same edges through AddEdge alone
// and through a mix of AddLinks batches (empty ones included) and AddEdge
// calls: the two graphs must have the same CSR file image. The edges have
// many duplicates, which sum on weighted link types and collapse to 1 on
// unweighted ones.
func TestAddLinksMatchesAddEdge(t *testing.T) {
	const users = 12
	links := randomLinks(3, users, 200)
	ref := linkBuilder(t, users)
	for lt, ls := range links {
		for _, l := range ls {
			if err := ref.AddEdge(LinkTypeID(lt), l.From, l.To, l.W); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := ref.Build()
	if err != nil {
		t.Fatal(err)
	}
	b := linkBuilder(t, users)
	rng := randx.New(4)
	for lt, ls := range links {
		ltid := LinkTypeID(lt)
		for len(ls) > 0 {
			k := min(rng.Intn(9), len(ls))
			if rng.Intn(3) == 0 {
				for _, l := range ls[:k] {
					if err := b.AddEdge(ltid, l.From, l.To, l.W); err != nil {
						t.Fatal(err)
					}
				}
			} else if err := b.AddLinks(ltid, ls[:k]); err != nil {
				t.Fatal(err)
			}
			ls = ls[k:]
		}
	}
	got, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csrImage(t, got), csrImage(t, want)) {
		t.Fatal("AddLinks graph differs from the AddEdge graph")
	}
	checkTransposed(t, got)
	for lt, r := range outRows(got) {
		decl := got.Schema().LinkType(LinkTypeID(lt))
		w := naiveRows(got.NumEntities(), links[lt], !decl.Weighted)
		if !slices.Equal(r.Off, w.Off) || !slices.Equal(r.To, w.To) || !slices.Equal(r.W, w.W) {
			t.Fatalf("link %q: rows differ from the map-based merge", decl.Name)
		}
		if len(r.To) == len(links[lt]) {
			t.Fatalf("link %q: no duplicate edges to merge", decl.Name)
		}
	}
}

// TestAddLinksStrengthOverflow checks that duplicates summing past int32
// fail Build with the same error whichever way they arrived.
func TestAddLinksStrengthOverflow(t *testing.T) {
	big := []Link{{From: 0, To: 1, W: math.MaxInt32}, {From: 0, To: 1, W: 1}}
	b := linkBuilder(t, 2)
	if err := b.AddEdge(1, 0, 1, math.MaxInt32); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	_, want := b.Build()
	if want == nil {
		t.Fatal("AddEdge overflow accepted")
	}
	for name, add := range map[string]func(*Builder) error{
		"one batch": func(b *Builder) error { return b.AddLinks(1, big) },
		"two batches": func(b *Builder) error {
			if err := b.AddLinks(1, big[:1]); err != nil {
				return err
			}
			return b.AddLinks(1, big[1:])
		},
		"batch and edge": func(b *Builder) error {
			if err := b.AddLinks(1, big[:1]); err != nil {
				return err
			}
			return b.AddEdge(1, 0, 1, 1)
		},
	} {
		b := linkBuilder(t, 2)
		if err := add(b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := b.Build(); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: Build error %v, want %v", name, err, want)
		}
	}
}

// TestAddLinksRejects checks that a batch holding one invalid link fails
// with the error AddEdge gives for that link and adds none of its links.
func TestAddLinksRejects(t *testing.T) {
	const users = 3
	good := Link{From: 0, To: 1, W: 1}
	for _, c := range []struct {
		name string
		lt   LinkTypeID
		bad  Link
	}{
		{"bad source", 0, Link{From: -1, To: 1, W: 1}},
		{"source past the entities", 0, Link{From: users + 1, To: 1, W: 1}},
		{"bad destination", 1, Link{From: 0, To: 99, W: 2}},
		{"wrong destination type", 0, Link{From: 0, To: users, W: 1}},
		{"forbidden self-loop", 1, Link{From: 2, To: 2, W: 1}},
		{"strength 0", 1, Link{From: 0, To: 2, W: 0}},
		{"negative strength", 2, Link{From: 1, To: 1, W: -3}},
		{"unweighted strength 2", 0, Link{From: 1, To: 2, W: 2}},
		{"unknown link type", 9, good},
	} {
		want := linkBuilder(t, users).AddEdge(c.lt, c.bad.From, c.bad.To, c.bad.W)
		if want == nil {
			t.Fatalf("%s: AddEdge accepted %+v", c.name, c.bad)
		}
		b := linkBuilder(t, users)
		err := b.AddLinks(c.lt, []Link{good, c.bad, good})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: AddLinks error %v, want %v", c.name, err, want)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEdgesTotal() != 0 {
			t.Errorf("%s: rejected batch left %d edges", c.name, g.NumEdgesTotal())
		}
	}
}

// TestSetSetDense covers the entity-indexed set columns: values sorted
// and copied, a set cleared with nil or an empty slice, entities set out
// of id order, entities with no set, and entities added after the last
// SetSet.
func TestSetSetDense(t *testing.T) {
	s := userSchema(t)
	b := NewBuilder(s)
	for i := 0; i < 4; i++ {
		b.AddEntity(0, "", 1980, 0)
	}
	vals := []int32{9, 2, 5}
	b.SetSet("tags", 3, vals)
	vals[0] = 100 // the builder holds a copy
	b.SetSet("tags", 1, []int32{4})
	b.SetSet("tags", 0, []int32{7})
	b.SetSet("tags", 0, nil)
	b.SetSet("tags", 1, []int32{})
	b.SetSet("tags", 1, []int32{8, 6})
	b.SetSet("tags", 2, []int32{1})
	b.SetSet("tags", 2, []int32{})
	b.AddEntity(0, "", 1990, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{nil, {6, 8}, nil, {2, 5, 9}, nil}
	for v, w := range want {
		if got := g.Set("tags", EntityID(v)); !slices.Equal(got, w) {
			t.Errorf("entity %d: set %v, want %v", v, got, w)
		}
	}

	// A column that was only ever cleared still exists, as an empty one.
	b = NewBuilder(s)
	b.AddEntity(0, "", 1980, 0)
	b.SetSet("tags", 0, nil)
	g, err = b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if names := g.SetNames(); !slices.Equal(names, []string{"tags"}) {
		t.Errorf("set names %v, want [tags]", names)
	}
	if got := g.Set("tags", 0); len(got) != 0 {
		t.Errorf("cleared set %v", got)
	}
}

// AdoptSet keeps what SetSet would keep of a set that already ascends,
// clears a set as SetSet does, and panics on values out of order as on an
// entity or attribute SetSet refuses, leaving the entity's set unset.
func TestAdoptSet(t *testing.T) {
	b := NewBuilder(userSchema(t))
	for i := 0; i < 3; i++ {
		b.AddEntity(0, "", 1980, 0)
	}
	b.AdoptSet("tags", 0, []int32{2, 2, 5, 9})
	b.AdoptSet("tags", 1, []int32{4})
	b.AdoptSet("tags", 1, nil)
	for _, tc := range []struct {
		name string
		attr string
		v    EntityID
		vals []int32
	}{
		{"out of order", "tags", 2, []int32{3, 1}},
		{"unknown entity", "tags", 3, []int32{1}},
		{"unknown attribute", "nope", 2, []int32{1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AdoptSet did not panic", tc.name)
				}
			}()
			b.AdoptSet(tc.attr, tc.v, tc.vals)
		}()
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{2, 2, 5, 9}, nil, nil}
	for v, w := range want {
		if got := g.Set("tags", EntityID(v)); !slices.Equal(got, w) {
			t.Errorf("entity %d: set %v, want %v", v, got, w)
		}
	}
}

// TestInterleavedSetsAllocs adds entities and their sets in turn, as the
// generator's drain and hinriskd's snippet build do. The set column grows
// by doubling, as the other columns do, so a build of 16 times as many
// entities makes a few more allocations per column, not 16 times as many.
func TestInterleavedSetsAllocs(t *testing.T) {
	s := userSchema(t)
	set := []int32{1, 2}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			b := NewBuilder(s)
			for range n {
				v := b.AddEntity(0, "", 1980, 0)
				b.AdoptSet("tags", v, set)
			}
			if _, err := b.Build(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1<<10), allocs(1<<14)
	t.Logf("allocations: %.0f at 2^10 entities, %.0f at 2^14", small, large)
	if large-small > 64 {
		t.Errorf("a build of 2^14 entities makes %.0f allocations, one of 2^10 %.0f: not logarithmic in n", large, small)
	}
}

// naiveRows merges links per (source, destination) with a map and lists
// each row ascending: the forward rows Build must produce.
func naiveRows(n int, links []Link, collapse bool) Rows {
	sum := map[[2]EntityID]int64{}
	for _, l := range links {
		sum[[2]EntityID{l.From, l.To}] += int64(l.W)
	}
	keys := make([][2]EntityID, 0, len(sum))
	for k := range sum {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]EntityID) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	r := Rows{Off: make([]int64, n+1)}
	for _, k := range keys {
		w := int32(sum[k])
		if collapse {
			w = 1
		}
		r.To = append(r.To, k[1])
		r.W = append(r.W, w)
		r.Off[k[0]+1]++
	}
	for v := 1; v <= n; v++ {
		r.Off[v] += r.Off[v-1]
	}
	return r
}

// TestBuildParallelMatchesSerial builds a graph past parallelBuildLinks
// edges, so that Build runs its link types on a pool, at GOMAXPROCS 1
// (one worker: the serial path) and at 2 and NumCPU: the images must be
// equal, and the forward rows must equal a map-based merge of the links.
// When several link types overflow, the error must be the lowest link
// type's at every setting.
func TestBuildParallelMatchesSerial(t *testing.T) {
	const users = 3000
	per := parallelBuildLinks/4 + 1000
	links := randomLinks(11, users, per)
	build := func(procs int, links [][]Link) (*Graph, error) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		b := linkBuilder(t, users)
		for lt, ls := range links {
			// Two batches and some single edges per link type.
			for _, l := range ls[:10] {
				if err := b.AddEdge(LinkTypeID(lt), l.From, l.To, l.W); err != nil {
					t.Fatal(err)
				}
			}
			mid := len(ls) / 2
			for _, part := range [][]Link{ls[10:mid], ls[mid:]} {
				if err := b.AddLinks(LinkTypeID(lt), part); err != nil {
					t.Fatal(err)
				}
			}
		}
		return b.Build()
	}
	serial, err := build(1, links)
	if err != nil {
		t.Fatal(err)
	}
	want := csrImage(t, serial)
	for _, procs := range []int{2, runtime.NumCPU()} {
		g, err := build(procs, links)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csrImage(t, g), want) {
			t.Fatalf("GOMAXPROCS=%d: image differs from the serial build", procs)
		}
	}
	n := serial.NumEntities()
	for lt, r := range outRows(serial) {
		decl := serial.Schema().LinkType(LinkTypeID(lt))
		w := naiveRows(n, links[lt], !decl.Weighted)
		if !slices.Equal(r.Off, w.Off) || !slices.Equal(r.To, w.To) || !slices.Equal(r.W, w.W) {
			t.Fatalf("link %q: rows differ from the map-based merge", decl.Name)
		}
	}
	checkTransposed(t, serial)

	// Overflow link type 2 at entity 7 and link type 1 at entity 9: the
	// error names entity 9 however the pool ran.
	bad := slices.Clone(links)
	bad[1] = append(slices.Clone(links[1]), Link{From: 9, To: 8, W: math.MaxInt32}, Link{From: 9, To: 8, W: math.MaxInt32})
	bad[2] = append(slices.Clone(links[2]), Link{From: 7, To: 7, W: math.MaxInt32}, Link{From: 7, To: 7, W: math.MaxInt32})
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		_, err := build(procs, bad)
		if err == nil || err.Error() != "hin: merged edge strength overflows int32 at entity 9" {
			t.Fatalf("GOMAXPROCS=%d: error %v, want link type 1's overflow at entity 9", procs, err)
		}
	}
}

// FuzzBuilderLinks decodes arbitrary bytes into a sequence of operations
// on rowsSchema over four users and a tag, each a batch of links of one
// link type sent through AddLinks or through one AddEdge per link, and
// sends the same links through AddEdge alone. Both builders must stop at
// the same error, or build to the same error or the same CSR image.
//
// An operation is one byte (link type = byte % 4, AddEdge if byte & 4,
// byte / 8 % 4 links), then three bytes per link: source and destination
// are byte % 7 − 1 (so -1 and 5, past the last entity, occur) and the
// strength is the signed byte % 4, or MaxInt32 for 0x7f.
func FuzzBuilderLinks(f *testing.F) {
	const users = 4
	f.Add([]byte{})
	f.Add([]byte{0x18, 1, 2, 1, 2, 1, 1, 3, 2, 1, 0x0d, 2, 3, 3, 3, 4, 2})
	f.Add([]byte{0x09, 1, 2, 0x7f, 0x0d, 1, 2, 0x7f})                      // overflow across an AddLinks batch and an AddEdge
	f.Add([]byte{0x00, 0x08, 1, 1, 1})                                     // an empty batch, then a self-loop on follow
	f.Add([]byte{0x1b, 1, 6, 1, 2, 6, 1, 3, 6, 1, 0x13, 1, 2, 1, 0, 1, 0}) // has links, then a batch with strength 0
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		type op struct {
			lt      LinkTypeID
			addEdge bool
			links   []Link
		}
		var ops []op
		for len(data) > 0 {
			h := next()
			o := op{lt: LinkTypeID(h % 4), addEdge: h&4 != 0}
			for k := int(h / 8 % 4); k > 0; k-- {
				l := Link{From: EntityID(next()%7) - 1, To: EntityID(next()%7) - 1}
				if w := next(); w == 0x7f {
					l.W = math.MaxInt32
				} else {
					l.W = int32(int8(w)) % 4
				}
				o.links = append(o.links, l)
			}
			ops = append(ops, o)
		}
		mixed, single := linkBuilder(t, users), linkBuilder(t, users)
		var errMixed, errSingle error
		for _, o := range ops {
			if o.addEdge {
				for _, l := range o.links {
					if errMixed = mixed.AddEdge(o.lt, l.From, l.To, l.W); errMixed != nil {
						break
					}
				}
			} else {
				errMixed = mixed.AddLinks(o.lt, o.links)
			}
			if errMixed != nil {
				break
			}
		}
	single:
		for _, o := range ops {
			for _, l := range o.links {
				if errSingle = single.AddEdge(o.lt, l.From, l.To, l.W); errSingle != nil {
					break single
				}
			}
		}
		if fmt.Sprint(errMixed) != fmt.Sprint(errSingle) {
			t.Fatalf("add errors differ: mixed %v, AddEdge alone %v", errMixed, errSingle)
		}
		if errMixed != nil {
			return
		}
		gm, errMixed := mixed.Build()
		gs, errSingle := single.Build()
		if fmt.Sprint(errMixed) != fmt.Sprint(errSingle) {
			t.Fatalf("build errors differ: mixed %v, AddEdge alone %v", errMixed, errSingle)
		}
		if errMixed == nil && !bytes.Equal(csrImage(t, gm), csrImage(t, gs)) {
			t.Fatal("images differ")
		}
	})
}
