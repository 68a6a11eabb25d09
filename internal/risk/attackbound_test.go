package risk_test

import (
	"fmt"
	"testing"

	"github.com/hinpriv/dehin/internal/anonymize"
	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/risk"
	"github.com/hinpriv/dehin/internal/tqq"
)

// TestRiskBoundsAttack ties the risk measure (Defs. 7–8, Thm. 1) to
// DeHIN's measured precision. When DeHIN compares a subset of the
// signature's attributes over a subset of its link types, its link
// matcher accepts equal strengths, it uses neither in-edges nor
// majority-strength removal, and the target is the auxiliary graph with
// its ids randomized, every depth-n signature class of a target's true
// counterpart lies inside the target's candidate set at distance n. The
// proof is by induction on n: two entities with equal depth-n signatures
// have a bijection between their neighbors that keeps strengths and
// depth-(n-1) signatures, which is a matching Algorithm 2 accepts. So the
// truth is never dropped, and precision ≤ the fraction of singleton
// classes ≤ R_n. NeighborTolerance and FallbackProfileOnly can only widen
// the candidate sets, so the bound holds under them too. A hash that
// merged two classes would put a non-candidate into a class and fail here.
func TestRiskBoundsAttack(t *testing.T) {
	const communitySize = 400
	attrs := []int{tqq.AttrNumTags}
	variants := []struct {
		name string
		cfg  dehin.Config
	}{
		{"exact", dehin.Config{LinkMatch: dehin.ExactLinkMatcher}},
		{"growth", dehin.Config{}},
		{"tolerance", dehin.Config{LinkMatch: dehin.ExactLinkMatcher, NeighborTolerance: 0.5}},
		{"fallback", dehin.Config{LinkMatch: dehin.ExactLinkMatcher, FallbackProfileOnly: true}},
	}
	for _, seed := range []uint64{3, 8} {
		gcfg := tqq.DefaultConfig(4*communitySize, seed)
		densities := []float64{0.002, 0.006}
		for _, d := range densities {
			gcfg.Communities = append(gcfg.Communities, tqq.CommunitySpec{Size: communitySize, Density: d})
		}
		ds, err := tqq.Generate(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		for ci, density := range densities {
			aux, _, err := ds.Graph.Induced(ds.Communities[ci])
			if err != nil {
				t.Fatal(err)
			}
			rel, err := anonymize.RandomizeIDs(aux, seed+uint64(ci))
			if err != nil {
				t.Fatal(err)
			}
			sw, err := risk.NetworkSweep(aux, risk.SignatureConfig{MaxDistance: 3, EntityAttrs: attrs})
			if err != nil {
				t.Fatal(err)
			}
			grid, err := risk.SignatureGrid(aux, risk.SignatureConfig{MaxDistance: 3, EntityAttrs: attrs})
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n <= 3; n++ {
				classOf := map[uint64][]hin.EntityID{}
				for v, s := range grid[n] {
					classOf[s] = append(classOf[s], hin.EntityID(v))
				}
				singletons := 0
				for _, members := range classOf {
					if len(members) == 1 {
						singletons++
					}
				}
				single := float64(singletons) / float64(aux.NumEntities())
				if single > sw.Risk[n] {
					t.Fatalf("seed %d density %g n=%d: singleton fraction %g above risk %g", seed, density, n, single, sw.Risk[n])
				}
				for _, vt := range variants {
					name := fmt.Sprintf("seed %d density %g n=%d %s", seed, density, n, vt.name)
					cfg := vt.cfg
					cfg.MaxDistance = n
					cfg.Profile = dehin.ProfileSpec{ExactAttrs: attrs}
					cfg.UseIndex = true
					a, err := dehin.NewAttack(aux, cfg)
					if err != nil {
						t.Fatal(err)
					}
					inSet := make([]bool, aux.NumEntities())
					for tv := range rel.ToOrig {
						cands := a.Deanonymize(rel.Graph, hin.EntityID(tv))
						for _, c := range cands {
							inSet[c] = true
						}
						truth := rel.ToOrig[tv]
						if !inSet[truth] {
							t.Fatalf("%s: target %d dropped its true counterpart %d", name, tv, truth)
						}
						for _, u := range classOf[grid[n][truth]] {
							if !inSet[u] {
								t.Fatalf("%s: target %d: %d shares its counterpart's class but is no candidate", name, tv, u)
							}
						}
						for _, c := range cands {
							inSet[c] = false
						}
					}
					res, err := a.Run(rel.Graph, rel.ToOrig)
					if err != nil {
						t.Fatal(err)
					}
					if res.Precision > single {
						t.Fatalf("%s: precision %g above singleton fraction %g", name, res.Precision, single)
					}
					t.Logf("%s: precision %.3f ≤ singletons %.3f ≤ risk %.3f", name, res.Precision, single, sw.Risk[n])
				}
			}
		}
	}
}
