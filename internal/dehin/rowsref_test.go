package dehin

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/hinpriv/dehin/internal/anonymize"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// removeMajorityStrengthEdgesRef is RemoveMajorityStrengthEdges as it was
// written on hin.Builder, one AddEdge per kept edge: the reference the
// row-based version must reproduce byte for byte.
func removeMajorityStrengthEdgesRef(g hin.GraphBackend) (*hin.Graph, error) {
	schema := g.Schema()
	b := hin.NewBuilder(schema)
	n := g.NumEntities()
	var attrs []int64
	for i := 0; i < n; i++ {
		id := hin.EntityID(i)
		attrs = g.AppendAttrs(attrs[:0], id)
		b.AddEntity(g.EntityType(id), g.Label(id), attrs...)
		for _, sa := range schema.EntityType(g.EntityType(id)).SetAttrs {
			if s := g.Set(sa, id); len(s) > 0 {
				b.SetSet(sa, id, s)
			}
		}
	}
	buf := &hin.EdgeBuf{}
	for lt := 0; lt < schema.NumLinkTypes(); lt++ {
		ltid := hin.LinkTypeID(lt)
		maj, _, ok := hin.MajorityStrength(g, ltid)
		for v := 0; v < n; v++ {
			tos, ws := g.OutEdgesBuf(buf, ltid, hin.EntityID(v))
			for j, to := range tos {
				if ok && ws[j] == maj {
					continue
				}
				if err := b.AddEdge(ltid, hin.EntityID(v), to, ws[j]); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build()
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

func TestRemoveMajorityStrengthEdgesMatchesBuilderReference(t *testing.T) {
	cfg := tqq.DefaultConfig(1500, 17)
	cfg.Communities = []tqq.CommunitySpec{{Size: 120, Density: 0.02}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	target := tgt.Graph
	cga, err := anonymize.CompleteGraph(target, anonymize.CGAOptions{StrengthMax: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	vw, err := anonymize.CompleteGraph(target, anonymize.CGAOptions{VaryWeights: true, StrengthMax: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *hin.Graph
	}{
		{"full", d.Graph},
		{"target", target},
		{"cga", cga},
		{"vwcga", vw},
		{"toy", buildTarget(t)},
	}
	for _, tc := range graphs {
		want, err := removeMajorityStrengthEdgesRef(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		wantImg := graphImage(t, want)
		for _, src := range []hin.GraphBackend{tc.g, hin.FromGraph(tc.g)} {
			got, err := RemoveMajorityStrengthEdges(src)
			if err != nil {
				t.Fatalf("%s %T: %v", tc.name, src, err)
			}
			if !bytes.Equal(graphImage(t, got), wantImg) {
				t.Fatalf("%s %T: stripped graph differs from the Builder reference", tc.name, src)
			}
		}
	}
}

// BenchmarkRemoveMajorityStrength strips the majority strengths from one
// 500-user release (experiments.DefaultParams' target size, at its densest
// density) completed with constant fake weights (cga) and with varying
// ones (vwcga): the preparation every re-configured attack on a Complete
// Graph Anonymity release pays once per target.
func BenchmarkRemoveMajorityStrength(b *testing.B) {
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
		g, err := anonymize.CompleteGraph(tgt.Graph, anonymize.CGAOptions{
			VaryWeights: vw, StrengthMax: cfg.StrengthMax, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RemoveMajorityStrengthEdges(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
