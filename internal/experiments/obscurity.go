package experiments

import (
	"fmt"
	"slices"

	"github.com/hinpriv/dehin/internal/dehin"
)

// ObscurityResult realizes Section 6.4: an adversary who does not know
// which anonymization was applied can always run the re-configured DeHIN
// (majority-strength removal + profile fallback). The experiment compares
// that one fixed attack against KDDA-only targets and against CGA-hardened
// targets - if both stay high, "security by obscurity" buys the publisher
// nothing.
type ObscurityResult struct {
	Params    Params
	Densities []float64
	// Plain[di] is the plain DeHIN on KDDA targets (the informed
	// adversary); ReconfigKDDA and ReconfigCGA are the one-size-fits-all
	// re-configured attack on KDDA and CGA targets. All at the deepest
	// swept distance.
	Plain, ReconfigKDDA, ReconfigCGA []float64
}

// RunObscurity executes the comparison across densities.
func RunObscurity(w *Workbench) (*ObscurityResult, error) {
	return (&shared{w: w}).obscurity()
}

// obscurity reads the plain column from the pass's Table 2 and the CGA
// column from its Table 4 - the same re-configured attack on the same
// completions - and runs only the re-configured attack on KDDA targets.
func (s *shared) obscurity() (*ObscurityResult, error) {
	p := s.w.Params
	maxN := slices.Max(p.Distances)
	ni := slices.Index(p.Distances, maxN)
	t2, err := s.table2()
	if err != nil {
		return nil, err
	}
	t4, err := s.table4()
	if err != nil {
		return nil, err
	}
	reconfig, err := s.w.Attack(dehin.Config{
		MaxDistance:            maxN,
		RemoveMajorityStrength: true,
		FallbackProfileOnly:    true,
	})
	if err != nil {
		return nil, err
	}
	res := &ObscurityResult{Params: p, Densities: p.Densities}
	for di := range p.Densities {
		targets, err := s.w.Targets(di)
		if err != nil {
			return nil, err
		}
		pKDDA, _, err := averageRun(reconfig, targets)
		if err != nil {
			return nil, err
		}
		res.Plain = append(res.Plain, t2.Cells[di][ni].Precision)
		res.ReconfigKDDA = append(res.ReconfigKDDA, pKDDA)
		res.ReconfigCGA = append(res.ReconfigCGA, t4.Cells[di][ni].Precision)
	}
	return res, nil
}

// Render lays the comparison out per density.
func (r *ObscurityResult) Render() *Table {
	t := &Table{
		Title: "Section 6.4: one re-configured DeHIN against unknown anonymization (precision %)",
		Header: []string{"Density", "Informed (plain, KDDA)",
			"Re-configured on KDDA", "Re-configured on CGA"},
	}
	for di, d := range r.Densities {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", d),
			pct(r.Plain[di]),
			pct(r.ReconfigKDDA[di]),
			pct(r.ReconfigCGA[di]),
		})
	}
	t.Notes = append(t.Notes,
		"the re-configured attack pays a fixed price (majority-strength links lost) regardless",
		"of whether fakes were present - ignorance of the scheme does not protect the publisher")
	return t
}
