package risk

import (
	"fmt"

	"github.com/hinpriv/dehin/internal/hin"
)

// ConvergenceProfile quantifies the paper's Section 4.4 bottleneck
// analysis (Figure 5): risk cannot grow past the point where deeper
// neighborhoods stop adding information. For each distance d in
// [0, maxDistance] it reports
//
//   - Risk[d]      - the dataset risk C/N at distance d, and
//   - Converged[d] - the fraction of entities whose equivalence class is
//     already final at d, i.e. identical to its class at maxDistance.
//
// Leaf entities (no out-edges via the utilized link types) converge at
// distance 0; entities sharing all deeper neighbors (the paper's v1'/v2'
// scenario) converge as soon as the shared structure is absorbed.
type Convergence struct {
	Risk      []float64
	Converged []float64
}

// ConvergenceProfile computes the profile. cfg.MaxDistance is the deepest
// distance analyzed. One refinement sweep serves every distance: the
// per-round observer keeps each partition's class sizes (round-d
// signatures are independent of MaxDistance, so they equal what a
// standalone distance-d run would produce).
func ConvergenceProfile(g hin.GraphBackend, cfg SignatureConfig) (*Convergence, error) {
	if cfg.MaxDistance < 0 {
		return nil, fmt.Errorf("risk: negative MaxDistance")
	}
	n := g.NumEntities()
	if n == 0 {
		return nil, fmt.Errorf("risk: empty graph")
	}
	sizes := make([][]int32, cfg.MaxDistance+1)
	out := &Convergence{
		Risk:      make([]float64, cfg.MaxDistance+1),
		Converged: make([]float64, cfg.MaxDistance+1),
	}
	_, err := sweep(g, cfg, func(d int, sigs []uint64) {
		sizes[d], _, out.Risk[d] = ClassSizes(sigs)
	})
	if err != nil {
		return nil, err
	}
	final := sizes[cfg.MaxDistance]
	for d := 0; d <= cfg.MaxDistance; d++ {
		// An entity has converged at d if its class at d has the same
		// size as its final class (classes only split as d grows, so
		// equal size means identical membership).
		converged := 0
		for v, k := range sizes[d] {
			if k == final[v] {
				converged++
			}
		}
		out.Converged[d] = float64(converged) / float64(n)
	}
	return out, nil
}
