package hin

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/hinpriv/dehin/internal/randx"
)

// randomRichGraph builds a labeled, attributed, set-carrying graph with
// duplicate edges (exercising merge) from a seeded RNG.
func randomRichGraph(t testing.TB, seed uint64) *Graph {
	t.Helper()
	s := userSchema(t)
	rng := randx.New(seed)
	n := rng.IntRange(2, 60)
	b := NewBuilder(s)
	for i := 0; i < n; i++ {
		b.AddEntity(0, fmt.Sprintf("u%04d", i), int64(1900+rng.Intn(100)), int64(rng.Intn(3)))
		if rng.Intn(3) > 0 {
			tags := make([]int32, rng.IntRange(1, 5))
			for j := range tags {
				tags[j] = int32(rng.Intn(20))
			}
			b.SetSet("tags", EntityID(i), tags)
		}
	}
	follow, mention := s.MustLinkTypeID("follow"), s.MustLinkTypeID("mention")
	for i := 0; i < 6*n; i++ {
		f := EntityID(rng.Intn(n))
		to := EntityID(rng.Intn(n))
		if f == to {
			continue
		}
		if rng.Intn(2) == 0 {
			if err := b.AddEdge(follow, f, to, 1); err != nil {
				t.Fatal(err)
			}
		} else if err := b.AddEdge(mention, f, to, int32(rng.IntRange(1, 9))); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// assertBackendsEqual checks every GraphBackend accessor agrees between
// the two backends.
func assertBackendsEqual(t *testing.T, want *Graph, got *CSRGraph) {
	t.Helper()
	if want.Schema().String() != got.Schema().String() {
		t.Fatalf("schema mismatch:\n%s\nvs\n%s", want.Schema(), got.Schema())
	}
	n := want.NumEntities()
	if got.NumEntities() != n {
		t.Fatalf("NumEntities = %d, want %d", got.NumEntities(), n)
	}
	if w, g := want.NumEdgesTotal(), got.NumEdgesTotal(); w != g {
		t.Fatalf("NumEdgesTotal = %d, want %d", g, w)
	}
	names := want.SetNames()
	var gn []string
	for name := range got.sets {
		gn = append(gn, name)
	}
	sort.Strings(gn)
	if !slices.Equal(gn, names) {
		t.Fatalf("set columns = %v, want %v", gn, names)
	}
	var wAttrs, gAttrs []int64
	for v := 0; v < n; v++ {
		id := EntityID(v)
		if want.EntityType(id) != got.EntityType(id) {
			t.Fatalf("EntityType(%d) = %d, want %d", v, got.EntityType(id), want.EntityType(id))
		}
		if want.Label(id) != got.Label(id) {
			t.Fatalf("Label(%d) = %q, want %q", v, got.Label(id), want.Label(id))
		}
		if want.NumAttrs(id) != got.NumAttrs(id) {
			t.Fatalf("NumAttrs(%d) = %d, want %d", v, got.NumAttrs(id), want.NumAttrs(id))
		}
		wAttrs, gAttrs = want.AppendAttrs(wAttrs[:0], id), got.AppendAttrs(gAttrs[:0], id)
		if !slices.Equal(wAttrs, gAttrs) {
			t.Fatalf("attrs(%d) = %v, want %v", v, gAttrs, wAttrs)
		}
		for i := 0; i < want.NumAttrs(id); i++ {
			if want.Attr(id, i) != got.Attr(id, i) {
				t.Fatalf("Attr(%d,%d) = %d, want %d", v, i, got.Attr(id, i), want.Attr(id, i))
			}
		}
		for _, name := range names {
			if !slices.Equal(want.Set(name, id), got.Set(name, id)) {
				t.Fatalf("Set(%q,%d) = %v, want %v", name, v, got.Set(name, id), want.Set(name, id))
			}
		}
	}
	wbuf, gbuf := &EdgeBuf{}, &EdgeBuf{}
	for lt := 0; lt < want.Schema().NumLinkTypes(); lt++ {
		ltid := LinkTypeID(lt)
		if w, g := want.NumEdges(ltid), got.NumEdges(ltid); w != g {
			t.Fatalf("NumEdges(%d) = %d, want %d", lt, g, w)
		}
		if w, g := want.OutDegrees(ltid, nil), got.OutDegrees(ltid, nil); !slices.Equal(w, g) {
			t.Fatalf("OutDegrees(%d) mismatch", lt)
		}
		if w, g := want.InDegrees(ltid, nil), got.InDegrees(ltid, nil); !slices.Equal(w, g) {
			t.Fatalf("InDegrees(%d) mismatch", lt)
		}
		for v := 0; v < n; v++ {
			id := EntityID(v)
			if want.OutDegree(ltid, id) != got.OutDegree(ltid, id) {
				t.Fatalf("OutDegree(%d,%d) = %d, want %d", lt, v, got.OutDegree(ltid, id), want.OutDegree(ltid, id))
			}
			if want.InDegree(ltid, id) != got.InDegree(ltid, id) {
				t.Fatalf("InDegree(%d,%d) mismatch", lt, v)
			}
			wt, ww := want.OutEdgesBuf(wbuf, ltid, id)
			gt, gw := got.OutEdgesBuf(gbuf, ltid, id)
			if !slices.Equal(wt, gt) || !slices.Equal(ww, gw) {
				t.Fatalf("OutEdgesBuf(%d,%d): (%v,%v) want (%v,%v)", lt, v, gt, gw, wt, ww)
			}
			wt, ww = want.InEdgesBuf(wbuf, ltid, id)
			gt, gw = got.InEdgesBuf(gbuf, ltid, id)
			if !slices.Equal(wt, gt) || !slices.Equal(ww, gw) {
				t.Fatalf("InEdgesBuf(%d,%d): (%v,%v) want (%v,%v)", lt, v, gt, gw, wt, ww)
			}
		}
	}
}

func TestFromGraphEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomRichGraph(t, seed)
		assertBackendsEqual(t, g, FromGraph(g))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRFileRoundTrip(t *testing.T) {
	g := randomRichGraph(t, 7)
	path := filepath.Join(t.TempDir(), "g.hincsr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertBackendsEqual(t, g, cf.Graph())
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestEmptyGraphCSRFile(t *testing.T) {
	s := userSchema(t)
	g, err := NewBuilder(s).Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "empty.hincsr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	assertBackendsEqual(t, g, cf.Graph())
}

// csrImage returns the bytes WriteCSRFile persists for g.
func csrImage(t testing.TB, g *Graph) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "image.hincsr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWriteCSRFilePinned pins the encoder's output: a changed digest is a
// format change, which needs a new csrVersion.
func TestWriteCSRFilePinned(t *testing.T) {
	empty, err := NewBuilder(userSchema(t)).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *Graph
		want string
	}{
		{"rich seed 21", randomRichGraph(t, 21), "daf28624562d9d283582b8202fa76fd59f7761cf177a00ac01d401c4f75b6992"},
		{"empty", empty, "1db39ee05d42482c6d2a5d20185d433ca404dc5c024d4a9d0b151041f85d0e0f"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(csrImage(t, c.g))); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

// TestWriteCSRFileUnderLiveMapping rewrites the path of an open CSRFile
// with a smaller graph, as tqqgen -graph-out followed by a daemon reload
// does. The old mapping must keep reading the old graph; truncating the
// file in place would fault or hand the trusting decoder garbage.
// Panic-on-fault turns a fault into a test failure instead of a crash.
func TestWriteCSRFileUnderLiveMapping(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	oldG, newG := wideRichGraph(t, 4), randomRichGraph(t, 21)
	path := filepath.Join(t.TempDir(), "live.hincsr")
	if err := WriteCSRFile(path, oldG); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if err := WriteCSRFile(path, newG); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("reading the old mapping after a rewrite: %v", r)
			}
		}()
		assertBackendsEqual(t, oldG, cf.Graph())
	}()
	cf2, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf2.Close()
	assertBackendsEqual(t, newG, cf2.Graph())
}

// TestWriteCSRFileModeAndCleanup checks the written file gets the mode
// os.Create gives, and that a write which cannot land leaves no temp file.
func TestWriteCSRFileModeAndCleanup(t *testing.T) {
	g := randomRichGraph(t, 3)
	dir := t.TempDir()
	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	path := filepath.Join(dir, "g.hincsr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	want, err := os.Stat(ref.Name())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != want.Mode() {
		t.Fatalf("mode %v, want os.Create's %v", got.Mode(), want.Mode())
	}
	// The rename over a directory fails after the body is written.
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSRFile(filepath.Join(dir, "sub"), g); err == nil {
		t.Fatal("WriteCSRFile over a directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if fmt.Sprint(names) != "[g.hincsr ref sub]" {
		t.Fatalf("directory holds %v, want [g.hincsr ref sub]", names)
	}
}

// corruptCSR copies the valid fixture, applies mutate, optionally repairs
// the header checksum/size, and returns the expected-to-fail path.
func corruptCSR(t *testing.T, src string, repair bool, mutate func([]byte) []byte) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	data = mutate(append([]byte(nil), data...))
	if repair {
		restampCSR(data)
	}
	dst := filepath.Join(t.TempDir(), "corrupt.hincsr")
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// restampCSR rewrites the header's size and checksum to match the body of
// a mutated CSR image, so the loader gets past them to the sections.
func restampCSR(d []byte) {
	binary.LittleEndian.PutUint64(d[16:24], uint64(len(d)))
	binary.LittleEndian.PutUint32(d[12:16], crc32.Checksum(d[csrHeaderSize:], castagnoli))
}

// csrSectionSpan returns the payload bounds of the i-th section of a CSR
// image: 1 is the meta section, 8 the set columns.
func csrSectionSpan(t testing.TB, d []byte, i int) (lo, hi int) {
	t.Helper()
	cur := &sectionCursor{data: d, pos: csrHeaderSize}
	for k := 0; k <= i; k++ {
		p, err := cur.next("section")
		if err != nil {
			t.Fatal(err)
		}
		lo, hi = cur.pos-len(p), cur.pos
	}
	return lo, hi
}

// overflowSetValues adds 2^62 to the final offset and the value count of
// the image's first set column. Four times the count then wraps to the
// real byte length, which once passed the truncation check and panicked
// in makeslice.
func overflowSetValues(t testing.TB, d []byte) []byte {
	lo, _ := csrSectionSpan(t, d, 1)
	n := int(binary.LittleEndian.Uint64(d[lo:]))
	lo, _ = csrSectionSpan(t, d, 8)
	offs := lo + 8 + int(binary.LittleEndian.Uint64(d[lo:]))
	for _, p := range []int{offs + n*8, offs + (n+1)*8} {
		binary.LittleEndian.PutUint64(d[p:], binary.LittleEndian.Uint64(d[p:])+1<<62)
	}
	return d
}

// overflowSetCount empties the image's set section and claims 2^63 set
// columns, a count that turned negative as an int and so once loaded.
func overflowSetCount(t testing.TB, d []byte) []byte {
	lo, hi := csrSectionSpan(t, d, 8)
	binary.LittleEndian.PutUint64(d[lo-8:], 0)
	d = append(d[:lo], d[hi:]...)
	lo, _ = csrSectionSpan(t, d, 1)
	binary.LittleEndian.PutUint64(d[lo+16:], 1<<63)
	return d
}

func TestOpenCSRFileFailureModes(t *testing.T) {
	g := randomRichGraph(t, 5)
	valid := filepath.Join(t.TempDir(), "valid.hincsr")
	if err := WriteCSRFile(valid, g); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		repair bool
		want   string
		mutate func([]byte) []byte
	}{
		{"short file", false, "truncated", func(d []byte) []byte { return d[:10] }},
		{"bad magic", false, "bad magic", func(d []byte) []byte { copy(d, "NOTACSR!"); return d }},
		{"version skew", true, "unsupported format version", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:12], 99)
			return d
		}},
		{"size mismatch", false, "header records", func(d []byte) []byte { return d[:len(d)-5] }},
		{"checksum mismatch", false, "checksum mismatch", func(d []byte) []byte {
			d[len(d)-1] ^= 0xff
			return d
		}},
		{"trailing bytes", true, "trailing bytes", func(d []byte) []byte { return append(d, 0) }},
		{"schema garbage", true, "schema section", func(d []byte) []byte {
			d[csrHeaderSize+8] = '!'
			return d
		}},
		{"adjacency corruption", true, "", func(d []byte) []byte {
			d[len(d)-9] ^= 0x55
			return d
		}},
		{"set value count overflow", true, "values truncated", func(d []byte) []byte {
			return overflowSetValues(t, d)
		}},
		{"set count overflow", true, "sets do not fit", func(d []byte) []byte {
			return overflowSetCount(t, d)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := corruptCSR(t, valid, c.repair, c.mutate)
			cf, err := OpenCSRFile(path)
			if err == nil {
				cf.Close()
				t.Fatal("OpenCSRFile succeeded on corrupt input")
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name the file", err)
			}
		})
	}
	if _, err := OpenCSRFile(filepath.Join(t.TempDir(), "missing.hincsr")); err == nil {
		t.Fatal("OpenCSRFile succeeded on missing file")
	}
}

// Satellite: both backends must report identical statistics.
func TestStatsCrossBackendEquality(t *testing.T) {
	g := randomRichGraph(t, 13)
	path := filepath.Join(t.TempDir(), "stats.hincsr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	for _, backend := range []struct {
		name string
		g    GraphBackend
	}{{"csr", FromGraph(g)}, {"file", cf.Graph()}} {
		c := backend.g
		if g.NumEdgesTotal() != c.NumEdgesTotal() {
			t.Fatalf("%s: NumEdgesTotal %d vs %d", backend.name, c.NumEdgesTotal(), g.NumEdgesTotal())
		}
		wd, werr := Density(g)
		gd, gerr := Density(c)
		if wd != gd || (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: Density (%v,%v) vs (%v,%v)", backend.name, gd, gerr, wd, werr)
		}
		for lt := 0; lt < g.Schema().NumLinkTypes(); lt++ {
			ltid := LinkTypeID(lt)
			if a, b := OutDegreeStats(g, ltid), OutDegreeStats(c, ltid); a != b {
				t.Fatalf("%s: OutDegreeStats(%d) %+v vs %+v", backend.name, lt, b, a)
			}
			if a, b := StrengthCardinality(g, ltid), StrengthCardinality(c, ltid); a != b {
				t.Fatalf("%s: StrengthCardinality(%d) %d vs %d", backend.name, lt, b, a)
			}
			aw, ac, aok := MajorityStrength(g, ltid)
			bw, bc, bok := MajorityStrength(c, ltid)
			if aw != bw || ac != bc || aok != bok {
				t.Fatalf("%s: MajorityStrength(%d) (%d,%d,%v) vs (%d,%d,%v)", backend.name, lt, bw, bc, bok, aw, ac, aok)
			}
		}
		if a, b := AttrCardinality(g, 0, 0), AttrCardinality(c, 0, 0); a != b {
			t.Fatalf("%s: AttrCardinality %d vs %d", backend.name, b, a)
		}
		if a, b := SetSizeCardinality(g, 0, "tags"), SetSizeCardinality(c, 0, "tags"); a != b {
			t.Fatalf("%s: SetSizeCardinality %d vs %d", backend.name, b, a)
		}
	}
}
