package experiments

import (
	"fmt"
	"slices"

	"github.com/hinpriv/dehin/internal/baseline"
	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// GrowthAblationResult measures the cost of the time gap (Section 5.1):
// attacking a synchronized auxiliary with exact matchers versus a grown
// auxiliary with growth-tolerant matchers, at the largest density.
type GrowthAblationResult struct {
	Params Params
	// Distances swept (>= 0).
	Distances []int
	// Synchronized[ni]: exact matchers against the ungrown dataset.
	// GrownTolerant[ni]: growth matchers against a grown crawl.
	// GrownExact[ni]: exact matchers against the grown crawl - the
	// mis-specified adversary, demonstrating why growth tolerance is
	// necessary (precision collapses).
	Synchronized, GrownTolerant, GrownExact []Cell
}

// RunGrowthAblation executes the three matcher/auxiliary combinations.
func RunGrowthAblation(w *Workbench) (*GrowthAblationResult, error) {
	p := w.Params
	di := len(p.Densities) - 1
	targets, err := w.Targets(di)
	if err != nil {
		return nil, err
	}
	gcfg := tqq.DefaultGrowth(p.Seed + 999)
	gcfg.NewUsers = p.AuxUsers / 20
	grown, err := tqq.Grow(w.Dataset, w.GenConfig(), gcfg)
	if err != nil {
		return nil, err
	}
	// Every attack on the grown crawl shares one candidate index.
	grownIdx, err := dehin.NewIndex(grown.Graph, dehin.TQQProfile())
	if err != nil {
		return nil, err
	}
	attackGrown := func(cfg dehin.Config) (*dehin.Attack, error) {
		cfg.Profile = dehin.TQQProfile()
		cfg.SharedIndex = grownIdx
		cfg.Parallelism = p.Parallelism
		return dehin.NewAttack(grown.Graph, cfg)
	}
	res := &GrowthAblationResult{Params: p, Distances: p.Distances}
	for _, n := range p.Distances {
		sync, err := w.Attack(dehin.Config{
			MaxDistance: n,
			EntityMatch: dehin.TQQProfile().ExactMatcher(),
			LinkMatch:   dehin.ExactLinkMatcher,
		})
		if err != nil {
			return nil, err
		}
		prec, red, err := averageRun(sync, targets)
		if err != nil {
			return nil, err
		}
		res.Synchronized = append(res.Synchronized, Cell{prec, red})

		tol, err := attackGrown(dehin.Config{MaxDistance: n})
		if err != nil {
			return nil, err
		}
		prec, red, err = averageRun(tol, targets)
		if err != nil {
			return nil, err
		}
		res.GrownTolerant = append(res.GrownTolerant, Cell{prec, red})

		exact, err := attackGrown(dehin.Config{
			MaxDistance: n,
			EntityMatch: dehin.TQQProfile().ExactMatcher(),
			LinkMatch:   dehin.ExactLinkMatcher,
		})
		if err != nil {
			return nil, err
		}
		prec, red, err = averageRun(exact, targets)
		if err != nil {
			return nil, err
		}
		res.GrownExact = append(res.GrownExact, Cell{prec, red})
	}
	return res, nil
}

// Render lays the growth ablation out as rows per scenario.
func (r *GrowthAblationResult) Render() *Table {
	t := &Table{
		Title:  "Ablation: time-gap growth and matcher choice (precision %, densest targets)",
		Header: []string{"Scenario"},
	}
	for _, n := range r.Distances {
		t.Header = append(t.Header, fmt.Sprintf("n=%d", n))
	}
	for _, s := range []struct {
		name  string
		cells []Cell
	}{
		{"synchronized aux, exact matchers", r.Synchronized},
		{"grown aux, growth-tolerant matchers", r.GrownTolerant},
		{"grown aux, exact matchers (mis-specified)", r.GrownExact},
	} {
		row := []string{s.name}
		for _, c := range s.cells {
			row = append(row, pct(c.Precision))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// BaselineAblationResult compares DeHIN against the prior-work attacks on
// the same targets across densities.
type BaselineAblationResult struct {
	Params    Params
	Densities []float64
	// DeHIN1 is DeHIN at distance 1; ProfileOnly the attribute-only
	// attack under the same growth-tolerant semantics (= DeHIN at
	// distance 0); both report precision (unique correct / targets).
	DeHIN1, ProfileOnly []float64
	// PropPrecision / PropCoverage score the NS09-style propagation
	// attack with 5% ground-truth seeds (precision over its attempted
	// mappings, coverage of non-seed targets).
	PropPrecision, PropCoverage []float64
}

// RunBaselineAblation compares DeHIN at distances 1 and 0 (the
// profile-only attack) with NS09 propagation per density.
func RunBaselineAblation(w *Workbench) (*BaselineAblationResult, error) {
	return (&shared{w: w}).baselineAblation()
}

// baselineAblation reads both DeHIN columns from the pass's Table 2 and
// runs only the propagation attack, on one auxiliary adjacency built for
// every target.
func (s *shared) baselineAblation() (*BaselineAblationResult, error) {
	p := s.w.Params
	n0, n1 := slices.Index(p.Distances, 0), slices.Index(p.Distances, 1)
	if n0 < 0 || n1 < 0 {
		return nil, fmt.Errorf("experiments: ablation-baseline needs distances 0 and 1")
	}
	t2, err := s.table2()
	if err != nil {
		return nil, err
	}
	res := &BaselineAblationResult{Params: p, Densities: p.Densities}
	rng := randx.New(p.Seed + 4242)
	auxAdj := baseline.UndirectedAdj(s.w.Dataset.Graph)
	for di := range p.Densities {
		targets, err := s.w.Targets(di)
		if err != nil {
			return nil, err
		}
		var pp, pc float64
		for _, rt := range targets {
			seeds := make(map[hin.EntityID]hin.EntityID)
			seedCount := rt.Graph.NumEntities() / 20
			if seedCount < 3 {
				seedCount = 3
			}
			for _, i := range rng.SampleWithoutReplacement(rt.Graph.NumEntities(), seedCount) {
				seeds[hin.EntityID(i)] = rt.Truth[i]
			}
			pres, err := baseline.Propagation(rt.Graph, auxAdj, baseline.PropagationConfig{
				Seeds: seeds,
				Theta: 0.5,
			})
			if err != nil {
				return nil, err
			}
			precP, cov := baseline.Score(pres, rt.Truth, seeds)
			pp += precP
			pc += cov
		}
		n := float64(len(targets))
		res.DeHIN1 = append(res.DeHIN1, t2.Cells[di][n1].Precision)
		res.ProfileOnly = append(res.ProfileOnly, t2.Cells[di][n0].Precision)
		res.PropPrecision = append(res.PropPrecision, pp/n)
		res.PropCoverage = append(res.PropCoverage, pc/n)
	}
	return res, nil
}

// Render lays the baseline comparison out per density.
func (r *BaselineAblationResult) Render() *Table {
	t := &Table{
		Title: "Ablation: DeHIN vs prior-work attacks (percent)",
		Header: []string{"Density", "DeHIN n=1", "Profile-only",
			"NS09 precision", "NS09 coverage"},
	}
	for di, d := range r.Densities {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", d),
			pct(r.DeHIN1[di]),
			pct(r.ProfileOnly[di]),
			pct(r.PropPrecision[di]),
			pct(r.PropCoverage[di]),
		})
	}
	t.Notes = append(t.Notes, "NS09 gets 5% ground-truth seeds; DeHIN and profile-only get none")
	return t
}

// HomogeneousAblationResult quantifies the paper's Section 5.2 claim that
// DeHIN also works on a homogeneous network "with slight performance
// degradation": precision using each single link type alone versus all
// four.
type HomogeneousAblationResult struct {
	Params    Params
	Density   float64
	Distances []int
	// Single[li][ni] is precision with only link type li; All[ni] with
	// every link type.
	Names  []string
	Single [][]float64
	All    []float64
}

// RunHomogeneousAblation reads the single-link-type and all-four rows of
// Table 3 at the largest density.
func RunHomogeneousAblation(w *Workbench) (*HomogeneousAblationResult, error) {
	return (&shared{w: w}).homogeneousAblation()
}

// homogeneousAblation is a view of the pass's Table 3, as Figure 9 is:
// its one-link-type rows in schema order, and its row using all four.
func (s *shared) homogeneousAblation() (*HomogeneousAblationResult, error) {
	t3, err := s.table3()
	if err != nil {
		return nil, err
	}
	schema := s.w.Dataset.Graph.Schema()
	res := &HomogeneousAblationResult{
		Params:    t3.Params,
		Density:   t3.Density,
		Distances: t3.Distances,
		Single:    make([][]float64, schema.NumLinkTypes()),
	}
	for lt := range schema.NumLinkTypes() {
		res.Names = append(res.Names, schema.LinkType(hin.LinkTypeID(lt)).Name)
	}
	// Table 3's rows follow LinkSubsets, whose singletons run f, m, c, r:
	// place each by its link type, not by its position.
	for si, sub := range LinkSubsets(schema) {
		switch len(sub.Links) {
		case 1:
			res.Single[sub.Links[0]] = precisions(t3.Cells[si])
		case schema.NumLinkTypes():
			res.All = precisions(t3.Cells[si])
		}
	}
	return res, nil
}

// Render lays the homogeneous ablation out per link type.
func (r *HomogeneousAblationResult) Render() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: homogeneous (single-link-type) DeHIN vs heterogeneous (density %g), precision %%", r.Density),
		Header: []string{"Network"},
	}
	for _, n := range r.Distances {
		t.Header = append(t.Header, fmt.Sprintf("n=%d", n))
	}
	for li, name := range r.Names {
		row := []string{"only " + name}
		for ni := range r.Distances {
			row = append(row, pct(r.Single[li][ni]))
		}
		t.Rows = append(t.Rows, row)
	}
	row := []string{"all four (heterogeneous)"}
	for ni := range r.Distances {
		row = append(row, pct(r.All[ni]))
	}
	t.Rows = append(t.Rows, row)
	return t
}
