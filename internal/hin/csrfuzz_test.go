package hin

import "testing"

// FuzzOpenCSRFile feeds arbitrary images to the loader. The header's size
// and checksum are re-stamped first, or nearly every mutation would stop
// at the checksum. Every input must either fail with the same error at 1
// and 4 workers or load a graph that passes checkCSRInvariants.
func FuzzOpenCSRFile(f *testing.F) {
	for _, seed := range []uint64{1, 5, 21} {
		f.Add(csrImage(f, randomRichGraph(f, seed)))
	}
	empty, err := NewBuilder(userSchema(f)).Build()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(csrImage(f, empty))
	b := NewBuilder(userSchema(f))
	b.SetSet("tags", b.AddEntity(0, "u", 1980, 1), []int32{7})
	one, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(overflowSetValues(f, csrImage(f, one)))
	f.Add(overflowSetCount(f, csrImage(f, one)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < csrHeaderSize {
			return // OpenCSRFile rejects these before parsing
		}
		data = append([]byte(nil), data...)
		restampCSR(data)
		g, err1 := parseCSRFile(data, 1)
		_, err4 := parseCSRFile(data, 4)
		if (err1 == nil) != (err4 == nil) || (err1 != nil && err1.Error() != err4.Error()) {
			t.Fatalf("errors differ across worker counts: 1: %v, 4: %v", err1, err4)
		}
		if err1 == nil {
			checkCSRInvariants(t, g)
		}
	})
}

// checkCSRInvariants calls every accessor on every entity and link type of
// a loaded graph and checks what the query path trusts: rows strictly
// ascending with ids in [0, n), per link type out- and in-degrees that
// both sum to NumEdges, and sorted set rows.
func checkCSRInvariants(t *testing.T, g *CSRGraph) {
	t.Helper()
	s := g.Schema()
	n := g.NumEntities()
	var attrs []int64
	for v := 0; v < n; v++ {
		id := EntityID(v)
		if int(g.EntityType(id)) >= s.NumEntityTypes() {
			t.Fatalf("entity %d has type %d of %d", v, g.EntityType(id), s.NumEntityTypes())
		}
		g.Label(id)
		attrs = g.AppendAttrs(attrs[:0], id)
		if len(attrs) != g.NumAttrs(id) {
			t.Fatalf("entity %d: AppendAttrs gave %d attrs, NumAttrs %d", v, len(attrs), g.NumAttrs(id))
		}
		for i, a := range attrs {
			if g.Attr(id, i) != a {
				t.Fatalf("entity %d: Attr(%d) = %d, AppendAttrs %d", v, i, g.Attr(id, i), a)
			}
		}
		for name := range g.sets {
			row := g.Set(name, id)
			for j := 1; j < len(row); j++ {
				if row[j] < row[j-1] {
					t.Fatalf("entity %d: set %q row %v not sorted", v, name, row)
				}
			}
		}
	}
	buf := &EdgeBuf{}
	var total int64
	for lt := 0; lt < s.NumLinkTypes(); lt++ {
		ltid := LinkTypeID(lt)
		outs, ins := g.OutDegrees(ltid, nil), g.InDegrees(ltid, nil)
		var sumOut, sumIn int64
		for v := 0; v < n; v++ {
			id := EntityID(v)
			tos, _ := g.OutEdgesBuf(buf, ltid, id)
			checkRow(t, "out", lt, v, tos, n)
			if len(tos) != g.OutDegree(ltid, id) || len(tos) != int(outs[v]) {
				t.Fatalf("link %d entity %d: %d out-edges, OutDegree %d, OutDegrees %d", lt, v, len(tos), g.OutDegree(ltid, id), outs[v])
			}
			sumOut += int64(len(tos))
			tos, _ = g.InEdgesBuf(buf, ltid, id)
			checkRow(t, "in", lt, v, tos, n)
			if len(tos) != g.InDegree(ltid, id) || len(tos) != int(ins[v]) {
				t.Fatalf("link %d entity %d: %d in-edges, InDegree %d, InDegrees %d", lt, v, len(tos), g.InDegree(ltid, id), ins[v])
			}
			sumIn += int64(len(tos))
		}
		if sumOut != g.NumEdges(ltid) || sumIn != g.NumEdges(ltid) {
			t.Fatalf("link %d: out-degrees sum to %d, in-degrees to %d, NumEdges %d", lt, sumOut, sumIn, g.NumEdges(ltid))
		}
		total += g.NumEdges(ltid)
	}
	if total != g.NumEdgesTotal() {
		t.Fatalf("NumEdgesTotal %d, link types sum to %d", g.NumEdgesTotal(), total)
	}
}

func checkRow(t *testing.T, dir string, lt, v int, tos []EntityID, n int) {
	t.Helper()
	for i, to := range tos {
		if to < 0 || int(to) >= n || (i > 0 && to <= tos[i-1]) {
			t.Fatalf("link %d entity %d %s-row %v: not strictly ascending in [0, %d)", lt, v, dir, tos, n)
		}
	}
}
