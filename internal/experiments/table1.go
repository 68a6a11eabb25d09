package experiments

import (
	"fmt"

	"github.com/hinpriv/dehin/internal/risk"
	"github.com/hinpriv/dehin/internal/tqq"
)

// Table1Result reproduces Table 1 (and feeds Figure 7): the privacy risk
// of the anonymized density-0.01 target network as the utilized link types
// and the max distance of utilized neighbors grow.
type Table1Result struct {
	Params Params
	// Density is the density of the analyzed targets (the paper's 0.01 -
	// here the largest swept density).
	Density float64
	// Distances are the max-distance columns (>= 1; distance 0 is the
	// constant RiskAtZero, as in the paper's footnote).
	Distances []int
	// Subsets are the 15 link-type subsets in paper order.
	Subsets []string
	// Risk[si][di] is the mean risk for subset si at Distances[di].
	Risk [][]float64
	// RiskAtZero is the n=0 risk (profile-only; numtags cardinality / N).
	RiskAtZero float64
}

// RunTable1 evaluates privacy risk per Theorem 1 on the released targets
// of the largest density, sweeping link-type subsets and distances.
// Entity cardinality uses only the number of tags, per Section 6.1.
func RunTable1(w *Workbench) (*Table1Result, error) {
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
		return nil, fmt.Errorf("experiments: table1 needs a distance >= 1")
	}
	subsets := LinkSubsets(w.Dataset.Graph.Schema())
	res := &Table1Result{
		Params:    p,
		Density:   p.Densities[di],
		Distances: distances,
	}
	maxDist := 0
	for _, n := range distances {
		if n > maxDist {
			maxDist = n
		}
	}
	r0 := 0.0
	for si, s := range subsets {
		res.Subsets = append(res.Subsets, s.Name)
		row := make([]float64, len(distances))
		// One sweep per target covers every distance column at once
		// (risk.SweepResult risk values are bit-identical to the
		// per-distance NetworkRisk calls this replaces).
		for _, rt := range targets {
			sw, err := risk.NetworkSweep(rt.Graph, risk.SignatureConfig{
				MaxDistance: maxDist,
				LinkTypes:   s.Links,
				EntityAttrs: []int{tqq.AttrNumTags},
				Workers:     p.Workers,
			})
			if err != nil {
				return nil, err
			}
			for ni, n := range distances {
				row[ni] += sw.Risk[n]
			}
			// Distance 0 reads profiles only, so every subset's sweep
			// has the same Risk[0]; take the first subset's.
			if si == 0 {
				r0 += sw.Risk[0]
			}
		}
		for ni := range row {
			row[ni] /= float64(len(targets))
		}
		res.Risk = append(res.Risk, row)
	}
	res.RiskAtZero = r0 / float64(len(targets))
	return res, nil
}

// Render lays the result out like the paper's Table 1.
func (r *Table1Result) Render() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Table 1: Privacy risk of the anonymized t.qq-style network (density %g, size %d), in percent", r.Density, r.Params.TargetSize),
		Header: []string{"Types of Links \\ Max Distance"},
	}
	for _, n := range r.Distances {
		t.Header = append(t.Header, fmt.Sprintf("%d", n))
	}
	for si, name := range r.Subsets {
		row := []string{name}
		for ni := range r.Distances {
			row = append(row, pct(r.Risk[si][ni]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"f: follow; m: mention; r: retweet; c: comment",
		fmt.Sprintf("n = 0: only target entities' profiles are utilized and risk is always %s%%", pct(r.RiskAtZero)),
	)
	return t
}

// Figure7Result averages Table 1's risk over subsets with the same number
// of link types, per distance 0..max - the paper's Figure 7 series.
type Figure7Result struct {
	Params Params
	// Distances includes 0.
	Distances []int
	// Series[k-1][di] is the mean risk using k link types at
	// Distances[di].
	Series [][]float64
}

// RunFigure7 derives Figure 7 from a Table 1 run.
func RunFigure7(t1 *Table1Result) *Figure7Result {
	res := &Figure7Result{
		Params:    t1.Params,
		Distances: append([]int{0}, t1.Distances...),
	}
	means := meanBySize(t1.Subsets, len(t1.Distances), func(si, ni int) float64 { return t1.Risk[si][ni] })
	for _, m := range means {
		res.Series = append(res.Series, append([]float64{t1.RiskAtZero}, m...))
	}
	return res
}

// meanBySize averages a subsets x columns grid over the subsets with the
// same number of link types: out[k-1][ni] is the mean of cell(si, ni)
// over the subsets si with k link types, summed in subset order.
func meanBySize(subsets []string, cols int, cell func(si, ni int) float64) [][]float64 {
	out := make([][]float64, 4)
	for k := 1; k <= 4; k++ {
		series := make([]float64, cols)
		count := 0
		for si, name := range subsets {
			if subsetSize(name) != k {
				continue
			}
			count++
			for ni := range series {
				series[ni] += cell(si, ni)
			}
		}
		for ni := range series {
			series[ni] /= float64(count)
		}
		out[k-1] = series
	}
	return out
}

// subsetSize counts the link types in a subset name like "f-m-c".
func subsetSize(name string) int {
	n := 1
	for _, c := range name {
		if c == '-' {
			n++
		}
	}
	return n
}

// Render lays Figure 7 out as a table: one row per link-type count, one
// column per distance.
func (r *Figure7Result) Render() *Table {
	return renderBySize("Figure 7: Privacy risk (percent) vs max distance, averaged by number of utilized link types",
		r.Distances, r.Series)
}

// renderBySize renders the shared layout of Figures 7 and 9: one row per
// link-type count, one column per distance.
func renderBySize(title string, distances []int, series [][]float64) *Table {
	t := &Table{Title: title, Header: []string{"Link types \\ Max Distance"}}
	for _, n := range distances {
		t.Header = append(t.Header, fmt.Sprintf("%d", n))
	}
	for k, vals := range series {
		row := []string{fmt.Sprintf("%d", k+1)}
		for _, v := range vals {
			row = append(row, pct(v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
