package experiments

import (
	"fmt"

	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
)

// Table4Result reproduces Table 4: the re-configured DeHIN (majority-
// strength removal, Section 6.2) against targets hardened with Complete
// Graph Anonymity.
type Table4Result struct {
	Params    Params
	Densities []float64
	Distances []int
	Cells     [][]Cell
}

// RunTable4 completes every released target per link type, then attacks
// it with the re-configured DeHIN.
func RunTable4(w *Workbench) (*Table4Result, error) {
	return runCGASweep(w, false)
}

// runCGASweep powers Table 4 (varyWeights=false) and the VW-CGA series of
// Figure 8 (varyWeights=true). It builds one attack per distance, then
// completes one density's targets at a time and drops them once every
// distance has attacked them. The n > 0
// attacks all strip majority strengths, so the first of them prepares
// each completion once and every n > 0 attack runs on that copy, which
// dies with its density's loop too.
func runCGASweep(w *Workbench, varyWeights bool) (*Table4Result, error) {
	p := w.Params
	res := &Table4Result{Params: p, Densities: p.Densities, Distances: p.Distances}
	attacks := make([]*dehin.Attack, len(p.Distances))
	for ni, n := range p.Distances {
		a, err := w.Attack(dehin.Config{
			MaxDistance:            n,
			RemoveMajorityStrength: n > 0,
			FallbackProfileOnly:    n > 0,
		})
		if err != nil {
			return nil, err
		}
		attacks[ni] = a
	}
	for di := range p.Densities {
		completed, err := w.CompletedTargets(di, varyWeights)
		if err != nil {
			return nil, err
		}
		var stripped []hin.GraphBackend
		row := make([]Cell, len(p.Distances))
		for ni, n := range p.Distances {
			a := attacks[ni]
			var prec, red float64
			if n == 0 {
				prec, red, err = averageRun(a, completed)
			} else {
				if stripped == nil {
					stripped = make([]hin.GraphBackend, len(completed))
					for i, rt := range completed {
						if stripped[i], err = a.PrepareTarget(rt.Graph); err != nil {
							return nil, err
						}
					}
				}
				prec, red, err = average(len(completed), func(i int) (dehin.Result, error) {
					return a.RunPrepared(stripped[i], completed[i].Truth)
				})
			}
			if err != nil {
				return nil, err
			}
			row[ni] = Cell{Precision: prec, ReductionRate: red}
		}
		res.Cells = append(res.Cells, row)
	}
	return res, nil
}

// Render lays the result out like the paper's Table 4.
func (r *Table4Result) Render() *Table {
	return renderDensityTable(
		"Table 4: re-configured DeHIN vs Complete Graph Anonymity, in percent",
		r.Densities, r.Distances, r.Cells,
	)
}

// Figure8Result reproduces Figure 8(a)-(j): for each density, DeHIN
// precision vs max distance against the three anonymizations.
type Figure8Result struct {
	Params    Params
	Densities []float64
	Distances []int
	// KDDA / CGA / VWCGA [di][ni] are the precision series per panel.
	KDDA, CGA, VWCGA [][]float64
}

// RunFigure8 runs all three anonymization pipelines. The KDDA series is
// the plain DeHIN of Table 2; CGA and VW-CGA use the re-configured attack.
func RunFigure8(w *Workbench) (*Figure8Result, error) {
	return (&shared{w: w}).figure8()
}

// figure8 assembles Figure 8 from the pass's Table 2 and CGA sweeps.
func (s *shared) figure8() (*Figure8Result, error) {
	// Ask first for the VW-CGA sweep, the one only Figure 8 reads. Table
	// 2's and Table 4's slots come earlier in the suite and compute theirs,
	// so asking for Table 4 first would idle this worker until that sweep
	// ends instead of running the two CGA sweeps side by side.
	vw, err := s.vwcga()
	if err != nil {
		return nil, err
	}
	t2, err := s.table2()
	if err != nil {
		return nil, err
	}
	cga, err := s.table4()
	if err != nil {
		return nil, err
	}
	pick := func(cells [][]Cell) [][]float64 {
		out := make([][]float64, len(cells))
		for di, row := range cells {
			out[di] = precisions(row)
		}
		return out
	}
	p := s.w.Params
	return &Figure8Result{
		Params:    p,
		Densities: p.Densities,
		Distances: p.Distances,
		KDDA:      pick(t2.Cells),
		CGA:       pick(cga.Cells),
		VWCGA:     pick(vw.Cells),
	}, nil
}

// Render emits one block per density panel, mirroring Figure 8(a)-(j).
func (r *Figure8Result) Render() *Table {
	t := &Table{
		Title:  "Figure 8: DeHIN precision (percent) vs max distance per anonymization, one row group per density panel",
		Header: []string{"Density", "Scheme"},
	}
	for _, n := range r.Distances {
		t.Header = append(t.Header, fmt.Sprintf("n=%d", n))
	}
	for di, d := range r.Densities {
		for _, series := range []struct {
			name string
			vals []float64
		}{
			{"KDDA", r.KDDA[di]},
			{"CGA", r.CGA[di]},
			{"VW-CGA", r.VWCGA[di]},
		} {
			row := []string{fmt.Sprintf("%.3f", d), series.name}
			for _, v := range series.vals {
				row = append(row, pct(v))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"KDDA: KDD-Cup-style ID randomization, plain DeHIN",
		"CGA: Complete Graph Anonymity, re-configured DeHIN (majority-strength removal)",
		"VW-CGA: Varying Weight CGA; neighbor matching collapses, DeHIN falls back to profiles")
	return t
}
