package experiments

import (
	"fmt"

	"github.com/hinpriv/dehin/internal/dehin"
)

// Cell is one (precision, reduction rate) measurement.
type Cell struct {
	Precision     float64
	ReductionRate float64
}

// precisions returns the precision of each cell of a row.
func precisions(row []Cell) []float64 {
	out := make([]float64, len(row))
	for i, c := range row {
		out[i] = c.Precision
	}
	return out
}

// Table2Result reproduces Table 2: DeHIN against the KDDA-anonymized
// targets across densities and distances.
type Table2Result struct {
	Params    Params
	Densities []float64
	Distances []int
	// Cells[di][ni] is the mean over samples at Densities[di],
	// Distances[ni].
	Cells [][]Cell
}

// RunTable2 attacks every released target of every density at every
// distance with the growth-tolerant DeHIN, one attack per distance.
func RunTable2(w *Workbench) (*Table2Result, error) {
	res := &Table2Result{
		Params:    w.Params,
		Densities: w.Params.Densities,
		Distances: w.Params.Distances,
	}
	attacks := make([]*dehin.Attack, len(w.Params.Distances))
	for ni, n := range w.Params.Distances {
		a, err := w.Attack(dehin.Config{MaxDistance: n})
		if err != nil {
			return nil, err
		}
		attacks[ni] = a
	}
	for di := range w.Params.Densities {
		targets, err := w.Targets(di)
		if err != nil {
			return nil, err
		}
		row := make([]Cell, len(w.Params.Distances))
		for ni, a := range attacks {
			p, r, err := averageRun(a, targets)
			if err != nil {
				return nil, err
			}
			row[ni] = Cell{Precision: p, ReductionRate: r}
		}
		res.Cells = append(res.Cells, row)
	}
	return res, nil
}

// Render lays the result out like the paper's Table 2.
func (r *Table2Result) Render() *Table {
	return renderDensityTable(
		fmt.Sprintf("Table 2: DeHIN on the anonymized t.qq-style dataset (aux %d users), in percent", r.Params.AuxUsers),
		r.Densities, r.Distances, r.Cells,
	)
}

// renderDensityTable renders the shared density x distance layout of
// Tables 2 and 4.
func renderDensityTable(title string, densities []float64, distances []int, cells [][]Cell) *Table {
	t := &Table{Title: title, Header: []string{"Density"}}
	for _, n := range distances {
		t.Header = append(t.Header,
			fmt.Sprintf("Prec(n=%d)", n),
			fmt.Sprintf("Red(n=%d)", n),
		)
	}
	for di, d := range densities {
		row := []string{fmt.Sprintf("%.3f", d)}
		for ni := range distances {
			c := cells[di][ni]
			row = append(row, pct(c.Precision), pct3(c.ReductionRate))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "n: max distance of utilized neighbors; n=0 uses profile attributes only")
	return t
}
