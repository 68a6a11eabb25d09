package experiments

import (
	"fmt"

	"github.com/hinpriv/dehin/internal/anonymize"
	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/risk"
	"github.com/hinpriv/dehin/internal/tqq"
)

// PerturbAblationResult sweeps random edge perturbation (the Section 4.1
// "adding, deleting, switching edges" toolbox) on the densest targets and
// reports the privacy/utility frontier it buys: deleting or rewiring real
// edges is the only lever here that can break DeHIN's no-false-negative
// guarantee, and it does so in proportion to the damage.
type PerturbAblationResult struct {
	Params  Params
	Density float64
	// Rates are the swept perturbation rates (applied as both DeleteProb
	// and SwitchProb/2, with matching AddFrac).
	Rates []float64
	// Precision[i] is DeHIN precision at the deepest distance under
	// Rates[i]; EditRatio[i] the edge-edit distance over original edges.
	Precision []float64
	EditRatio []float64
}

// RunPerturbAblation executes the sweep.
func RunPerturbAblation(w *Workbench) (*PerturbAblationResult, error) {
	p := w.Params
	di := len(p.Densities) - 1
	targets, err := w.Targets(di)
	if err != nil {
		return nil, err
	}
	maxN := 0
	for _, n := range p.Distances {
		if n > maxN {
			maxN = n
		}
	}
	strengthMax := w.GenConfig().StrengthMax
	res := &PerturbAblationResult{
		Params:  p,
		Density: p.Densities[di],
		Rates:   []float64{0, 0.05, 0.1, 0.2, 0.4},
	}
	for ri, rate := range res.Rates {
		// The rational adversary calibrates neighbor tolerance to the
		// damage: with deletion rate r, rewiring r/2 and addition r, the
		// expected bad-edge fraction per link type is about 1.5r; the
		// adversary over-provisions to 2.5r to absorb binomial spread.
		tol := 2.5 * rate
		if tol > 0.9 {
			tol = 0.9
		}
		a, err := w.Attack(dehin.Config{MaxDistance: maxN, NeighborTolerance: tol})
		if err != nil {
			return nil, err
		}
		var precSum, editSum float64
		for ti, rt := range targets {
			pg, err := anonymize.Perturb(rt.Graph, anonymize.PerturbOptions{
				DeleteProb:  rate,
				SwitchProb:  rate / 2,
				AddFrac:     rate,
				StrengthMax: strengthMax,
				Seed:        p.Seed + uint64(ri*100+ti),
			})
			if err != nil {
				return nil, err
			}
			u, err := anonymize.MeasureUtility(rt.Graph, pg)
			if err != nil {
				return nil, err
			}
			r, err := a.Run(pg, rt.Truth)
			if err != nil {
				return nil, err
			}
			precSum += r.Precision
			editSum += float64(u.EdgeEditDistance()) / float64(rt.Graph.NumEdgesTotal())
		}
		n := float64(len(targets))
		res.Precision = append(res.Precision, precSum/n)
		res.EditRatio = append(res.EditRatio, editSum/n)
	}
	return res, nil
}

// Render lays the frontier out one rate per row.
func (r *PerturbAblationResult) Render() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: random edge perturbation vs DeHIN (density %g)", r.Density),
		Header: []string{"Rate", "Precision %", "Edit ratio"},
	}
	for i, rate := range r.Rates {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", rate),
			pct(r.Precision[i]),
			fmt.Sprintf("%.2f", r.EditRatio[i]),
		})
	}
	t.Notes = append(t.Notes,
		"rate r: each edge deleted w.p. r, rewired w.p. r/2, and r fake edges added per survivor",
		"unlike CGA, deletion/rewiring can eliminate the true counterpart (no-false-negative breaks)")
	return t
}

// BottleneckResult realizes the Section 4.4 / Figure 5 analysis: how much
// of the network has already converged (signature final) at each distance,
// explaining why risk saturates instead of growing to 1.
type BottleneckResult struct {
	Params  Params
	Density float64
	// Distances lists 0..max; Risk and Converged come from
	// risk.ConvergenceProfile averaged over samples.
	Distances []int
	Risk      []float64
	Converged []float64
	// LeafFrac is the fraction of entities with no out-edges via any
	// utilized link type (the v4'/v5' leaf scenario of Figure 5).
	LeafFrac float64
}

// RunBottleneck computes the convergence profile on the densest targets.
func RunBottleneck(w *Workbench) (*BottleneckResult, error) {
	p := w.Params
	di := len(p.Densities) - 1
	targets, err := w.Targets(di)
	if err != nil {
		return nil, err
	}
	maxN := 0
	for _, n := range p.Distances {
		if n > maxN {
			maxN = n
		}
	}
	res := &BottleneckResult{Params: p, Density: p.Densities[di]}
	for n := 0; n <= maxN; n++ {
		res.Distances = append(res.Distances, n)
	}
	res.Risk = make([]float64, maxN+1)
	res.Converged = make([]float64, maxN+1)
	leafs := 0
	total := 0
	for _, rt := range targets {
		cv, err := risk.ConvergenceProfile(rt.Graph, risk.SignatureConfig{
			MaxDistance: maxN,
			EntityAttrs: []int{tqq.AttrNumTags},
			Workers:     p.Workers,
		})
		if err != nil {
			return nil, err
		}
		for d := 0; d <= maxN; d++ {
			res.Risk[d] += cv.Risk[d]
			res.Converged[d] += cv.Converged[d]
		}
		for v := 0; v < rt.Graph.NumEntities(); v++ {
			total++
			deg := 0
			for lt := range rt.Graph.Schema().NumLinkTypes() {
				deg += rt.Graph.OutDegree(hin.LinkTypeID(lt), hin.EntityID(v))
			}
			if deg == 0 {
				leafs++
			}
		}
	}
	n := float64(len(targets))
	for d := 0; d <= maxN; d++ {
		res.Risk[d] /= n
		res.Converged[d] /= n
	}
	res.LeafFrac = float64(leafs) / float64(total)
	return res, nil
}

// Render lays the profile out one distance per row.
func (r *BottleneckResult) Render() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: risk saturation bottlenecks (Section 4.4, density %g)", r.Density),
		Header: []string{"Max distance", "Risk %", "Converged %"},
	}
	for i, d := range r.Distances {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", d),
			pct(r.Risk[i]),
			pct(r.Converged[i]),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("leaf entities (no out-edges via any utilized link type): %s%%", pct(r.LeafFrac)),
		"risk stops growing once the converged fraction reaches 1 (Figure 5's bottleneck scenarios)")
	return t
}
