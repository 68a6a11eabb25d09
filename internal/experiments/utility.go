package experiments

import (
	"fmt"

	"github.com/hinpriv/dehin/internal/anonymize"
	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
)

// UtilityRow pairs one anonymization scheme's privacy outcome (DeHIN
// precision at the deepest swept distance) with its utility cost, making
// the paper's Section 6.3 privacy/utility tradeoff explicit.
type UtilityRow struct {
	Scheme        string
	Precision     float64
	EdgesAdded    int64
	WeightL1      int64
	FakeWeight    int64
	EdgeEditRatio float64 // edits / original edges
}

// UtilityResult covers KDDA, CGA, VW-CGA, k-degree and strength
// generalization on the densest targets.
type UtilityResult struct {
	Params  Params
	Density float64
	Rows    []UtilityRow
}

// RunUtility measures the privacy/utility frontier.
func RunUtility(w *Workbench) (*UtilityResult, error) {
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
	// The CGA / VW-CGA rows complete the densest targets with the seeds
	// Table 4 and Figure 8 use, so the frontier is measured on the same
	// graphs the privacy numbers came from.
	cga, err := w.CompletedTargets(di, false)
	if err != nil {
		return nil, err
	}
	vwcga, err := w.CompletedTargets(di, true)
	if err != nil {
		return nil, err
	}
	res := &UtilityResult{Params: p, Density: p.Densities[di]}

	type scheme struct {
		name      string
		transform func(*ReleasedTarget, int) (*ReleasedTarget, anonymize.Utility, error)
		reconfig  bool
	}
	schemes := []scheme{
		{"KDDA (ID randomization)", func(rt *ReleasedTarget, i int) (*ReleasedTarget, anonymize.Utility, error) {
			return rt, anonymize.Utility{}, nil
		}, false},
		{"CGA", func(rt *ReleasedTarget, i int) (*ReleasedTarget, anonymize.Utility, error) {
			u, err := anonymize.MeasureUtility(rt.Graph, cga[i].Graph)
			return cga[i], u, err
		}, true},
		{"VW-CGA", func(rt *ReleasedTarget, i int) (*ReleasedTarget, anonymize.Utility, error) {
			u, err := anonymize.MeasureUtility(rt.Graph, vwcga[i].Graph)
			return vwcga[i], u, err
		}, true},
		{"k-degree (k=10)", func(rt *ReleasedTarget, i int) (*ReleasedTarget, anonymize.Utility, error) {
			g, err := anonymize.KDegree(rt.Graph, anonymize.KDegreeOptions{K: 10, StrengthMax: strengthMax, Seed: p.Seed + uint64(i)})
			if err != nil {
				return nil, anonymize.Utility{}, err
			}
			u, err := anonymize.MeasureUtility(rt.Graph, g)
			return &ReleasedTarget{Graph: g, Truth: rt.Truth}, u, err
		}, true},
		{"k-copy automorphism (k=2)", func(rt *ReleasedTarget, i int) (*ReleasedTarget, anonymize.Utility, error) {
			// Structural anonymity inside the release; utility measured
			// as the duplicated edge mass. DeHIN is unaffected - each
			// copy joins to the same individual outside.
			res, err := anonymize.KCopy(rt.Graph, 2)
			if err != nil {
				return nil, anonymize.Utility{}, err
			}
			truth := make([]hin.EntityID, len(res.ToOrig))
			for ri, orig := range res.ToOrig {
				truth[ri] = rt.Truth[orig]
			}
			u := anonymize.Utility{EdgesAdded: rt.Graph.NumEdgesTotal()}
			return &ReleasedTarget{Graph: res.Graph, Truth: truth}, u, nil
		}, false},
		{"strength generalization (k=5)", func(rt *ReleasedTarget, i int) (*ReleasedTarget, anonymize.Utility, error) {
			g, _, _, err := anonymize.GeneralizeStrengths(rt.Graph, 5, strengthMax)
			if err != nil {
				return nil, anonymize.Utility{}, err
			}
			u, err := anonymize.MeasureUtility(rt.Graph, g)
			return &ReleasedTarget{Graph: g, Truth: rt.Truth}, u, err
		}, false},
	}

	for _, s := range schemes {
		var precSum float64
		var util anonymize.Utility
		var origEdges int64
		for ti, rt := range targets {
			hardened, u, err := s.transform(rt, ti)
			if err != nil {
				return nil, err
			}
			util.EdgesAdded += u.EdgesAdded
			util.EdgesRemoved += u.EdgesRemoved
			util.WeightL1 += u.WeightL1
			util.FakeWeightMass += u.FakeWeightMass
			origEdges += rt.Graph.NumEdgesTotal()
			a, err := w.Attack(dehin.Config{
				MaxDistance:            maxN,
				RemoveMajorityStrength: s.reconfig,
				FallbackProfileOnly:    s.reconfig,
			})
			if err != nil {
				return nil, err
			}
			r, err := a.Run(hardened.Graph, hardened.Truth)
			if err != nil {
				return nil, err
			}
			precSum += r.Precision
		}
		n := float64(len(targets))
		res.Rows = append(res.Rows, UtilityRow{
			Scheme:        s.name,
			Precision:     precSum / n,
			EdgesAdded:    util.EdgesAdded,
			WeightL1:      util.WeightL1,
			FakeWeight:    util.FakeWeightMass,
			EdgeEditRatio: float64(util.EdgeEditDistance()) / float64(origEdges),
		})
	}
	return res, nil
}

// Render lays the tradeoff out one scheme per row.
func (r *UtilityResult) Render() *Table {
	t := &Table{
		Title: fmt.Sprintf("Privacy/utility tradeoff (density %g): DeHIN precision vs information loss", r.Density),
		Header: []string{"Scheme", "Precision %", "Edges added", "Weight L1",
			"Fake weight", "Edit ratio"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Scheme,
			pct(row.Precision),
			fmt.Sprintf("%d", row.EdgesAdded),
			fmt.Sprintf("%d", row.WeightL1),
			fmt.Sprintf("%d", row.FakeWeight),
			fmt.Sprintf("%.2f", row.EdgeEditRatio),
		})
	}
	t.Notes = append(t.Notes, "CGA/VW-CGA rows attack with the re-configured DeHIN; utility sums over all samples")
	return t
}
