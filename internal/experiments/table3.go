package experiments

import (
	"fmt"

	"github.com/hinpriv/dehin/internal/dehin"
)

// Table3Result reproduces Table 3 (and feeds Figure 9): DeHIN on the
// densest targets as the utilized link types grow.
type Table3Result struct {
	Params    Params
	Density   float64
	Distances []int // >= 1
	Subsets   []string
	// Cells[si][ni] is the mean over samples for subset si at
	// Distances[ni].
	Cells [][]Cell
	// AtZero is the distance-0 (profile-only) cell, constant across
	// subsets.
	AtZero Cell
}

// RunTable3 sweeps the 15 link-type subsets at the largest density.
func RunTable3(w *Workbench) (*Table3Result, error) {
	p := w.Params
	di := len(p.Densities) - 1
	targets, err := w.Targets(di)
	if err != nil {
		return nil, err
	}
	var distances []int
	for _, n := range p.Distances {
		if n >= 1 {
			distances = append(distances, n)
		}
	}
	if len(distances) == 0 {
		return nil, fmt.Errorf("experiments: table3 needs a distance >= 1")
	}
	res := &Table3Result{Params: p, Density: p.Densities[di], Distances: distances}
	for _, s := range LinkSubsets(w.Dataset.Graph.Schema()) {
		res.Subsets = append(res.Subsets, s.Name)
		row := make([]Cell, len(distances))
		for ni, n := range distances {
			a, err := w.Attack(dehin.Config{MaxDistance: n, LinkTypes: s.Links})
			if err != nil {
				return nil, err
			}
			prec, red, err := averageRun(a, targets)
			if err != nil {
				return nil, err
			}
			row[ni] = Cell{Precision: prec, ReductionRate: red}
		}
		res.Cells = append(res.Cells, row)
	}
	a0, err := w.Attack(dehin.Config{MaxDistance: 0})
	if err != nil {
		return nil, err
	}
	prec, red, err := averageRun(a0, targets)
	if err != nil {
		return nil, err
	}
	res.AtZero = Cell{Precision: prec, ReductionRate: red}
	return res, nil
}

// Render lays the result out like the paper's Table 3.
func (r *Table3Result) Render() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Table 3: DeHIN (density %g) as utilized link types increase, in percent", r.Density),
		Header: []string{"Types of Links"},
	}
	for _, n := range r.Distances {
		t.Header = append(t.Header,
			fmt.Sprintf("Prec(n=%d)", n),
			fmt.Sprintf("Red(n=%d)", n),
		)
	}
	for si, name := range r.Subsets {
		row := []string{name}
		for ni := range r.Distances {
			c := r.Cells[si][ni]
			row = append(row, pct(c.Precision), pct3(c.ReductionRate))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"f: follow; m: mention; r: retweet; c: comment",
		fmt.Sprintf("n = 0: precision and reduction rate are always %s%% and %s%%",
			pct(r.AtZero.Precision), pct3(r.AtZero.ReductionRate)),
	)
	return t
}

// Figure9Result averages Table 3 precision over subsets with the same
// number of link types - the paper's Figure 9.
type Figure9Result struct {
	Params    Params
	Distances []int
	// Series[k-1][ni] is the mean precision using k link types.
	Series [][]float64
}

// RunFigure9 derives Figure 9 from a Table 3 run.
func RunFigure9(t3 *Table3Result) *Figure9Result {
	return &Figure9Result{
		Params:    t3.Params,
		Distances: t3.Distances,
		Series: meanBySize(t3.Subsets, len(t3.Distances),
			func(si, ni int) float64 { return t3.Cells[si][ni].Precision }),
	}
}

// Render lays Figure 9 out as a table.
func (r *Figure9Result) Render() *Table {
	return renderBySize("Figure 9: DeHIN precision (percent) vs max distance, averaged by number of utilized link types",
		r.Distances, r.Series)
}
