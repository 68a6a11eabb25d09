package anonymize

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// completeGraphRef is CompleteGraph as it was written on hin.Builder, one
// AddEdge per real and fake edge: the reference the row-based version must
// reproduce byte for byte, RNG draws included.
func completeGraphRef(g *hin.Graph, opt CGAOptions) (*hin.Graph, error) {
	n := g.NumEntities()
	schema := g.Schema()
	rng := randx.New(opt.Seed)
	b := hin.NewBuilder(schema)
	for i := 0; i < n; i++ {
		id := hin.EntityID(i)
		b.AddEntity(g.EntityType(id), g.Label(id), g.Attrs(id)...)
		for _, sa := range schema.EntityType(g.EntityType(id)).SetAttrs {
			if s := g.Set(sa, id); len(s) > 0 {
				b.SetSet(sa, id, s)
			}
		}
	}
	for lt := 0; lt < schema.NumLinkTypes(); lt++ {
		ltid := hin.LinkTypeID(lt)
		decl := schema.LinkType(ltid)
		constant := int32(rng.IntRange(1, opt.StrengthMax))
		for u := 0; u < n; u++ {
			uid := hin.EntityID(u)
			tos, ws := g.OutEdges(ltid, uid)
			for j, to := range tos {
				if err := b.AddEdge(ltid, uid, to, ws[j]); err != nil {
					return nil, err
				}
			}
			j := 0
			for v := 0; v < n; v++ {
				if v == u && !decl.AllowSelf {
					continue
				}
				for j < len(tos) && int(tos[j]) < v {
					j++
				}
				if j < len(tos) && int(tos[j]) == v {
					continue
				}
				w := int32(1)
				if decl.Weighted {
					if opt.VaryWeights {
						w = int32(rng.IntRange(1, opt.StrengthMax))
					} else {
						w = constant
					}
				}
				if err := b.AddEdge(ltid, uid, hin.EntityID(v), w); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build()
}

// bucketStrengthsRef is bucketStrengths as it was written on hin.Builder.
func bucketStrengthsRef(g *hin.Graph, width int) (*hin.Graph, error) {
	schema := g.Schema()
	b := hin.NewBuilder(schema)
	n := g.NumEntities()
	for i := 0; i < n; i++ {
		id := hin.EntityID(i)
		b.AddEntity(g.EntityType(id), g.Label(id), g.Attrs(id)...)
		for _, sa := range schema.EntityType(g.EntityType(id)).SetAttrs {
			if s := g.Set(sa, id); len(s) > 0 {
				b.SetSet(sa, id, s)
			}
		}
	}
	for lt := 0; lt < schema.NumLinkTypes(); lt++ {
		ltid := hin.LinkTypeID(lt)
		weighted := schema.LinkType(ltid).Weighted
		for v := 0; v < n; v++ {
			tos, ws := g.OutEdges(ltid, hin.EntityID(v))
			for j, to := range tos {
				w := ws[j]
				if weighted && width > 1 {
					w = (w-1)/int32(width)*int32(width) + 1
				}
				if err := b.AddEdge(ltid, hin.EntityID(v), to, w); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build()
}

// generalizeStrengthsRef is GeneralizeStrengths over bucketStrengthsRef.
func generalizeStrengthsRef(g *hin.Graph, k int, strengthMax int) (*hin.Graph, int, bool, error) {
	for width := 1; ; width *= 2 {
		ag, err := bucketStrengthsRef(g, width)
		if err != nil {
			return nil, 0, false, err
		}
		if level := neighborhoodAnonymityLevel(ag); level >= k {
			return ag, width, true, nil
		}
		if width > strengthMax {
			return ag, width, false, nil
		}
	}
}

// graphImage is g's .hincsr encoding: every entity column and the rows of
// both directions, so equal images mean identical graphs.
func graphImage(t *testing.T, g *hin.Graph) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.hincsr")
	if err := hin.WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func assertSameGraph(t *testing.T, what string, want, got *hin.Graph) {
	t.Helper()
	if !bytes.Equal(graphImage(t, want), graphImage(t, got)) {
		t.Fatalf("%s: graph differs from the Builder reference", what)
	}
}

// selfLoopGraph is a random graph over a schema with an AllowSelf weighted
// link type (holding real self-loops), a weighted and an unweighted one.
func selfLoopGraph(t *testing.T, seed uint64, n int) *hin.Graph {
	t.Helper()
	s := hin.MustSchema(
		[]hin.EntityType{{Name: "U", Attrs: []string{"x"}, SetAttrs: []string{"s"}}},
		[]hin.LinkType{
			{Name: "loop", From: "U", To: "U", Weighted: true, AllowSelf: true},
			{Name: "w", From: "U", To: "U", Weighted: true},
			{Name: "u", From: "U", To: "U"},
		},
	)
	rng := randx.New(seed)
	b := hin.NewBuilder(s)
	for i := 0; i < n; i++ {
		v := b.AddEntity(0, fmt.Sprintf("e%d", i), int64(rng.Intn(7)))
		if rng.Intn(3) == 0 {
			b.SetSet("s", v, []int32{int32(rng.Intn(5))})
		}
	}
	for i := 0; i < 3*n; i++ {
		lt := hin.LinkTypeID(rng.Intn(3))
		f, to := hin.EntityID(rng.Intn(n)), hin.EntityID(rng.Intn(n))
		if i%5 == 0 {
			to = f
		}
		w := int32(1)
		if lt != 2 {
			w = int32(rng.IntRange(1, 9))
		}
		if f != to || lt == 0 {
			if err := b.AddEdge(lt, f, to, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCompleteGraphMatchesBuilderReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *hin.Graph
	}{
		{"tqq-60", smallDataset(t, 60, 3).Graph},
		{"tqq-90", smallDataset(t, 90, 8).Graph},
		{"selfloop", selfLoopGraph(t, 1, 40)},
		{"single", selfLoopGraph(t, 2, 1)},
	}
	for _, tc := range graphs {
		for _, vary := range []bool{false, true} {
			for _, seed := range []uint64{1, 7} {
				opt := CGAOptions{VaryWeights: vary, StrengthMax: 50, Seed: seed}
				what := fmt.Sprintf("%s vary=%v seed=%d", tc.name, vary, seed)
				want, err := completeGraphRef(tc.g, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := CompleteGraph(tc.g, opt)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				assertSameGraph(t, what, want, got)
			}
		}
	}
}

func TestGeneralizeStrengthsMatchesBuilderReference(t *testing.T) {
	for _, g := range []*hin.Graph{smallDataset(t, 200, 6).Graph, selfLoopGraph(t, 3, 50)} {
		for _, width := range []int{1, 2, 4, 32} {
			want, err := bucketStrengthsRef(g, width)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bucketStrengths(g, width)
			if err != nil {
				t.Fatal(err)
			}
			assertSameGraph(t, fmt.Sprintf("width %d", width), want, got)
		}
		for _, k := range []int{1, 2, 3, 8} {
			want, wWidth, wOK, err := generalizeStrengthsRef(g, k, 50)
			if err != nil {
				t.Fatal(err)
			}
			got, gWidth, gOK, err := GeneralizeStrengths(g, k, 50)
			if err != nil {
				t.Fatal(err)
			}
			if gWidth != wWidth || gOK != wOK {
				t.Fatalf("k=%d: width %d achieved %v, want %d %v", k, gWidth, gOK, wWidth, wOK)
			}
			assertSameGraph(t, fmt.Sprintf("k=%d", k), want, got)
		}
	}
}

// BenchmarkCompleteGraph completes one 500-user release
// (experiments.DefaultParams' target size, at its densest density) with
// constant fake weights (cga) and with varying ones (vwcga): the release
// BenchmarkRemoveMajorityStrength in internal/dehin strips.
func BenchmarkCompleteGraph(b *testing.B) {
	cfg := tqq.DefaultConfig(3000, 1)
	cfg.Communities = []tqq.CommunitySpec{{Size: 500, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, vw := range []bool{false, true} {
		name := "cga"
		if vw {
			name = "vwcga"
		}
		opt := CGAOptions{VaryWeights: vw, StrengthMax: cfg.StrengthMax, Seed: 1}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CompleteGraph(tgt.Graph, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
