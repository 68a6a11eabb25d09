package risk

import (
	"math"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// TestRiskEdgeCases covers Definition 7/8 at the boundary: no tuples, a
// single tuple (the "single candidate" case - risk 1), and a dataset where
// every tuple shares one value (risk 1/N, the k-anonymity floor).
func TestRiskEdgeCases(t *testing.T) {
	cases := []struct {
		name        string
		vals        []string
		risk        float64
		cardinality int
	}{
		{"empty", nil, 0, 0},
		{"single-candidate", []string{"v"}, 1, 1},
		{"all-identical", []string{"v", "v", "v", "v", "v"}, 0.2, 1},
		{"all-distinct", []string{"a", "b", "c"}, 1, 3},
		{"mixed", []string{"a", "a", "b"}, (0.5 + 0.5 + 1) / 3, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if r := DatasetRisk(c.vals, nil); math.Abs(r-c.risk) > 1e-12 {
				t.Fatalf("DatasetRisk = %g, want %g", r, c.risk)
			}
			if card := Cardinality(c.vals); card != c.cardinality {
				t.Fatalf("Cardinality = %d, want %d", card, c.cardinality)
			}
			if rs := Risks(c.vals, nil); len(rs) != len(c.vals) {
				t.Fatalf("Risks returned %d values for %d tuples", len(rs), len(c.vals))
			}
		})
	}
}

// TestSignaturesEdgeCases drives the WL-style refinement through its
// degenerate graphs: no entities at all (the empty signature), one entity,
// and a clique of attribute-identical entities that no distance can
// separate. Error paths (negative distance, bad link type, bad attribute
// index) must fail loudly instead of producing empty partitions.
func TestSignaturesEdgeCases(t *testing.T) {
	s := tqq.TargetSchema()
	mention := s.MustLinkTypeID(tqq.LinkMention)

	build := func(n int) *hin.Graph {
		b := hin.NewBuilder(s)
		for i := 0; i < n; i++ {
			b.AddEntity(0, "u", 1980, 1, 100, 2)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	t.Run("empty-graph", func(t *testing.T) {
		g := build(0)
		sigs, err := Signatures(g, SignatureConfig{MaxDistance: 2, LinkTypes: []hin.LinkTypeID{mention}, EntityAttrs: allAttrs()})
		if err != nil {
			t.Fatal(err)
		}
		if len(sigs) != 0 {
			t.Fatalf("empty graph produced %d signatures", len(sigs))
		}
		if r := DatasetRisk(sigs, nil); r != 0 {
			t.Fatalf("empty-graph risk = %g, want 0", r)
		}
	})

	t.Run("single-entity", func(t *testing.T) {
		g := build(1)
		r, err := NetworkRisk(g, SignatureConfig{MaxDistance: 1, LinkTypes: []hin.LinkTypeID{mention}, EntityAttrs: allAttrs()})
		if err != nil {
			t.Fatal(err)
		}
		if r != 1 {
			t.Fatalf("single entity must be fully identified: risk %g", r)
		}
	})

	t.Run("all-identical", func(t *testing.T) {
		g := build(8)
		for _, d := range []int{0, 1, 3} {
			sigs, err := Signatures(g, SignatureConfig{MaxDistance: d, LinkTypes: []hin.LinkTypeID{mention}, EntityAttrs: allAttrs()})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(sigs); i++ {
				if sigs[i] != sigs[0] {
					t.Fatalf("distance %d separated indistinguishable entities", d)
				}
			}
			if r := DatasetRisk(sigs, nil); math.Abs(r-1.0/8) > 1e-12 {
				t.Fatalf("distance %d risk = %g, want 1/8", d, r)
			}
		}
	})

	t.Run("errors", func(t *testing.T) {
		g := build(2)
		if _, err := Signatures(g, SignatureConfig{MaxDistance: -1}); err == nil {
			t.Fatal("negative MaxDistance accepted")
		}
		if _, err := Signatures(g, SignatureConfig{MaxDistance: 1, LinkTypes: []hin.LinkTypeID{99}}); err == nil {
			t.Fatal("out-of-range link type accepted")
		}
		if _, err := Signatures(g, SignatureConfig{MaxDistance: 0, EntityAttrs: []int{-1}}); err == nil {
			t.Fatal("negative attribute index accepted")
		}
		if _, err := Signatures(g, SignatureConfig{MaxDistance: 0, EntityAttrs: []int{1000}}); err == nil {
			t.Fatal("out-of-range attribute index accepted")
		}
	})
}

// TestRiskAtDensityBoundaries exercises the full signature-risk path on
// planted communities at the two ends of the paper's Equation-4 density
// sweep (0.001 and 0.01, Table 2's x-axis). The invariants are the ones
// Theorem 2 and monotonicity of WL refinement guarantee for ANY sample:
// risk stays within [1/N, 1], never decreases with distance, and always
// equals C/N (Theorem 1).
func TestRiskAtDensityBoundaries(t *testing.T) {
	for _, density := range []float64{0.001, 0.01} {
		cfg := tqq.DefaultConfig(2000, 11)
		cfg.Communities = []tqq.CommunitySpec{{Size: 200, Density: density}}
		ds, err := tqq.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := tqq.CommunityTarget(ds, 0, randx.New(5))
		if err != nil {
			t.Fatal(err)
		}
		g := tgt.Graph
		n := g.NumEntities()

		var links []hin.LinkTypeID
		for lt := 0; lt < g.Schema().NumLinkTypes(); lt++ {
			links = append(links, hin.LinkTypeID(lt))
		}
		prev := 0.0
		for _, d := range []int{0, 1, 2} {
			sigs, err := Signatures(g, SignatureConfig{MaxDistance: d, LinkTypes: links, EntityAttrs: allAttrs()})
			if err != nil {
				t.Fatal(err)
			}
			r := DatasetRisk(sigs, nil)
			if r < 1.0/float64(n)-1e-12 || r > 1+1e-12 {
				t.Fatalf("density %g distance %d: risk %g outside [1/N, 1]", density, d, r)
			}
			if r < prev-1e-12 {
				t.Fatalf("density %g: risk decreased with distance (%g -> %g)", density, prev, r)
			}
			if want := float64(Cardinality(sigs)) / float64(n); math.Abs(r-want) > 1e-12 {
				t.Fatalf("density %g distance %d: risk %g != C/N %g (Theorem 1)", density, d, r, want)
			}
			prev = r
		}
	}
}
