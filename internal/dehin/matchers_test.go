package dehin

import (
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/tqq"
)

// TestMatcherSpecializationsAgree pins the hand-specialized in-memory
// matcher body to the generic interface body: growthMatchMem (both graphs
// *hin.Graph) and the path every other backend pair takes inside
// GrowthMatcher must return the same verdict for every pair. The
// specialization exists purely for devirtualization, so any divergence is
// a bug in one of the mirrored bodies.
func TestMatcherSpecializationsAgree(t *testing.T) {
	cfg := tqq.DefaultConfig(600, 41)
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mem := d.Graph
	csr := hin.FromGraph(mem)
	ps := TQQProfile()
	ps.SubsetSets = []string{tqq.TagsAttr} // exercise the shared set tail too
	em := ps.GrowthMatcher()
	n := mem.NumEntities()
	pairs := 0
	agreed := 0
	for tv := 0; tv < n; tv += 7 {
		for av := 0; av < n; av += 11 {
			t0, a0 := hin.EntityID(tv), hin.EntityID(av)
			want := em(mem, csr, t0, a0) // mixed backends: interface body
			if got := em(mem, mem, t0, a0); got != want {
				t.Fatalf("pair (%d,%d): interface=%v mem=%v", tv, av, want, got)
			}
			pairs++
			if want {
				agreed++
			}
		}
	}
	if pairs == 0 || agreed == 0 || agreed == pairs {
		t.Fatalf("degenerate coverage: %d/%d pairs matched", agreed, pairs)
	}
}
