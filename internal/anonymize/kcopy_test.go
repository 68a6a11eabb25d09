package anonymize

import (
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/tqq"
)

func TestKCopyStructure(t *testing.T) {
	d := smallDataset(t, 80, 30)
	g := d.Graph
	res, err := KCopy(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	rg := res.Graph
	if rg.NumEntities() != 240 {
		t.Fatalf("entities = %d", rg.NumEntities())
	}
	if rg.NumEdgesTotal() != 3*g.NumEdgesTotal() {
		t.Fatalf("edges = %d, want %d", rg.NumEdgesTotal(), 3*g.NumEdgesTotal())
	}
	// ToOrig maps copy c of v back to v; copies are attribute-identical.
	for c := 0; c < 3; c++ {
		for v := 0; v < 80; v++ {
			rid := hin.EntityID(c*80 + v)
			if res.ToOrig[rid] != hin.EntityID(v) {
				t.Fatalf("ToOrig[%d] = %d", rid, res.ToOrig[rid])
			}
			a, b := rg.Attrs(rid), g.Attrs(hin.EntityID(v))
			for i := range a {
				if a[i] != b[i] {
					t.Fatal("copy attrs diverged")
				}
			}
		}
	}
	// Copies are disjoint: no edge crosses copy boundaries.
	for lt := 0; lt < 4; lt++ {
		for v := 0; v < 240; v++ {
			tos, _ := rg.OutEdges(hin.LinkTypeID(lt), hin.EntityID(v))
			for _, to := range tos {
				if int(to)/80 != v/80 {
					t.Fatalf("edge crosses copies: %d -> %d", v, to)
				}
			}
		}
	}
}

func TestKCopyAutomorphismLevel(t *testing.T) {
	d := smallDataset(t, 60, 31)
	for _, k := range []int{1, 2, 4} {
		res, err := KCopy(d.Graph, k)
		if err != nil {
			t.Fatal(err)
		}
		if level := AutomorphismLevel(res.Graph); level < k {
			t.Fatalf("k=%d: automorphism fingerprint level %d", k, level)
		}
	}
}

// TestAutomorphismLevelFullWidthAttrs pins that the fingerprint reads
// every attribute at its full 64 bits: two users whose tweet counts differ
// only above bit 31 are told apart, so the level is 1, not 2.
func TestAutomorphismLevelFullWidthAttrs(t *testing.T) {
	b := hin.NewBuilder(tqq.TargetSchema())
	b.AddEntity(0, "a", 1980, 1, 5, 2)
	b.AddEntity(0, "b", 1980, 1, 1<<32+5, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if level := AutomorphismLevel(g); level != 1 {
		t.Fatalf("tweets 5 and 2^32+5 share a fingerprint: level %d, want 1", level)
	}
}

func TestKCopyErrors(t *testing.T) {
	d := smallDataset(t, 10, 32)
	if _, err := KCopy(d.Graph, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}
