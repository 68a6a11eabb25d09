package experiments

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

// sharedBench builds one quick workbench for the whole test package; the
// fixture is immutable, so tests share it safely.
var (
	benchOnce sync.Once
	benchW    *Workbench
	benchErr  error
)

func quickBench(t *testing.T) *Workbench {
	t.Helper()
	benchOnce.Do(func() {
		benchW, benchErr = NewWorkbench(QuickParams())
	})
	if benchErr != nil {
		t.Fatal(benchErr)
	}
	return benchW
}

func TestParamsValidate(t *testing.T) {
	good := QuickParams()
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.AuxUsers = 1 },
		func(p *Params) { p.TargetSize = 1 },
		func(p *Params) { p.SamplesPerDensity = 0 },
		func(p *Params) { p.Densities = nil },
		func(p *Params) { p.Distances = nil },
		func(p *Params) { p.AuxUsers = p.TargetSize * len(p.Densities) * p.SamplesPerDensity / 2 },
	}
	for i, mod := range bad {
		p := QuickParams()
		mod(&p)
		if err := p.validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestLinkSubsetsOrder(t *testing.T) {
	w := quickBench(t)
	subs := LinkSubsets(w.Dataset.Graph.Schema())
	if len(subs) != 15 {
		t.Fatalf("got %d subsets", len(subs))
	}
	if subs[0].Name != "f" || subs[14].Name != "f-m-c-r" {
		t.Fatalf("order wrong: %s .. %s", subs[0].Name, subs[14].Name)
	}
	sizes := 0
	for _, s := range subs {
		sizes += len(s.Links)
		if subsetSize(s.Name) != len(s.Links) {
			t.Fatalf("%s: name/links mismatch", s.Name)
		}
	}
	if sizes != 32 { // 4*1 + 6*2 + 4*3 + 1*4
		t.Fatalf("total link count %d", sizes)
	}
}

func TestWorkbenchTargets(t *testing.T) {
	w := quickBench(t)
	for di := range w.Params.Densities {
		targets, err := w.Targets(di)
		if err != nil {
			t.Fatal(err)
		}
		if len(targets) != w.Params.SamplesPerDensity {
			t.Fatalf("density %d: %d targets", di, len(targets))
		}
		for _, rt := range targets {
			if rt.Graph.NumEntities() != w.Params.TargetSize {
				t.Fatalf("target size %d", rt.Graph.NumEntities())
			}
			if len(rt.Truth) != w.Params.TargetSize {
				t.Fatalf("truth size %d", len(rt.Truth))
			}
			// Ground truth consistency: same attributes.
			for i := 0; i < 20; i++ {
				a := rt.Graph.Attrs(0)
				b := w.Dataset.Graph.Attrs(rt.Truth[0])
				for j := range a {
					if a[j] != b[j] {
						t.Fatal("truth attribute mismatch")
					}
				}
			}
			// Labels actually anonymized.
			if rt.Graph.Label(0) == w.Dataset.Graph.Label(rt.Truth[0]) {
				t.Fatal("labels leak identity")
			}
		}
	}
	if _, err := w.Targets(99); err == nil {
		t.Fatal("bad density index accepted")
	}
}

func TestTable1Shapes(t *testing.T) {
	w := quickBench(t)
	r, err := RunTable1(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Subsets) != 15 {
		t.Fatalf("subsets = %d", len(r.Subsets))
	}
	// Paper shape 1: n=0 risk is tiny (tag-count cardinality / N).
	if r.RiskAtZero > 0.1 {
		t.Fatalf("distance-0 risk = %g, should be small", r.RiskAtZero)
	}
	// Paper shape 2: risk at distance >= 1 is large for the full subset.
	full := r.Risk[14]
	if full[0] < 0.5 {
		t.Fatalf("full-subset distance-1 risk = %g, want large", full[0])
	}
	// Paper shape 3: risk is non-decreasing in distance per subset.
	for si, row := range r.Risk {
		for ni := 1; ni < len(row); ni++ {
			if row[ni] < row[ni-1]-1e-9 {
				t.Fatalf("subset %s: risk fell from %g to %g", r.Subsets[si], row[ni-1], row[ni])
			}
		}
	}
	// Paper shape 4: the full subset dominates every single-type subset.
	for si := 0; si < 4; si++ {
		if r.Risk[si][0] > full[0]+1e-9 {
			t.Fatalf("single subset %s beats full subset", r.Subsets[si])
		}
	}
}

func TestFigure7MonotoneInLinkCount(t *testing.T) {
	w := quickBench(t)
	t1, err := RunTable1(w)
	if err != nil {
		t.Fatal(err)
	}
	f7 := RunFigure7(t1)
	if len(f7.Series) != 4 {
		t.Fatalf("series = %d", len(f7.Series))
	}
	// At each distance >= 1, average risk grows with the number of link
	// types.
	for ni := 1; ni < len(f7.Distances); ni++ {
		for k := 1; k < 4; k++ {
			if f7.Series[k][ni] < f7.Series[k-1][ni]-1e-9 {
				t.Fatalf("distance %d: risk with %d types < with %d", f7.Distances[ni], k+1, k)
			}
		}
	}
	// Distance 0 equals the profile-only constant.
	for k := 0; k < 4; k++ {
		if f7.Series[k][0] != t1.RiskAtZero {
			t.Fatal("distance-0 column should be the constant profile risk")
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	w := quickBench(t)
	r, err := RunTable2(w)
	if err != nil {
		t.Fatal(err)
	}
	nd, nn := len(r.Densities), len(r.Distances)
	// Paper shape 1: at max distance, precision grows with density
	// (endpoints; mid-sweep noise tolerated).
	if r.Cells[nd-1][nn-1].Precision <= r.Cells[0][nn-1].Precision {
		t.Fatalf("densest precision %g <= sparsest %g",
			r.Cells[nd-1][nn-1].Precision, r.Cells[0][nn-1].Precision)
	}
	// Paper shape 2: distance 1 crushes distance 0 at high density.
	if r.Cells[nd-1][1].Precision < 4*r.Cells[nd-1][0].Precision {
		t.Fatalf("distance-1 precision %g not >> distance-0 %g",
			r.Cells[nd-1][1].Precision, r.Cells[nd-1][0].Precision)
	}
	// Paper shape 3: precision never decreases with distance.
	for di := range r.Cells {
		for ni := 1; ni < nn; ni++ {
			if r.Cells[di][ni].Precision < r.Cells[di][ni-1].Precision-1e-9 {
				t.Fatalf("density %g: precision fell with distance", r.Densities[di])
			}
		}
	}
	// Paper shape 4: reduction rate is always enormous.
	for di := range r.Cells {
		for ni := 0; ni < nn; ni++ {
			if r.Cells[di][ni].ReductionRate < 0.99 {
				t.Fatalf("reduction rate %g < 0.99", r.Cells[di][ni].ReductionRate)
			}
		}
	}
	// Paper shape 5: densest target at distance >= 1 is mostly
	// de-anonymized.
	if r.Cells[nd-1][nn-1].Precision < 0.6 {
		t.Fatalf("densest precision = %g, want most users de-anonymized",
			r.Cells[nd-1][nn-1].Precision)
	}
}

func TestTable3Shapes(t *testing.T) {
	w := quickBench(t)
	r, err := RunTable3(w)
	if err != nil {
		t.Fatal(err)
	}
	f9 := RunFigure9(r)
	// Precision averaged by link-type count is monotone in the count at
	// every distance.
	for ni := range f9.Distances {
		for k := 1; k < 4; k++ {
			if f9.Series[k][ni] < f9.Series[k-1][ni]-1e-9 {
				t.Fatalf("distance idx %d: precision with %d types < with %d", ni, k+1, k)
			}
		}
	}
	// Full subset beats the profile-only floor decisively.
	last := len(r.Distances) - 1
	if r.Cells[14][last].Precision < 4*r.AtZero.Precision {
		t.Fatalf("full subset %g not >> profile-only %g",
			r.Cells[14][last].Precision, r.AtZero.Precision)
	}
}

func TestTable4AndFigure8Shapes(t *testing.T) {
	w := quickBench(t)
	f8, err := RunFigure8(w)
	if err != nil {
		t.Fatal(err)
	}
	nd := len(f8.Densities)
	nn := len(f8.Distances)
	for di := 0; di < nd; di++ {
		for ni := 0; ni < nn; ni++ {
			k, c, v := f8.KDDA[di][ni], f8.CGA[di][ni], f8.VWCGA[di][ni]
			// CGA degrades DeHIN but does not stop it at distance >= 1
			// for dense targets; VW-CGA pins it at the n=0 level.
			if ni >= 1 {
				if c > k+1e-9 {
					t.Fatalf("density %g n=%d: CGA precision %g exceeds KDDA %g",
						f8.Densities[di], f8.Distances[ni], c, k)
				}
				if v > f8.VWCGA[di][0]+1e-9 {
					t.Fatalf("density %g: VW-CGA precision grew with distance (%g > %g)",
						f8.Densities[di], v, f8.VWCGA[di][0])
				}
			}
		}
	}
	// At the densest panel and deepest distance, CGA still loses badly
	// to the attack (the paper's headline for Section 6.2) while VW-CGA
	// holds it near the profile floor.
	dLast, nLast := nd-1, nn-1
	if f8.CGA[dLast][nLast] < 0.4 {
		t.Fatalf("re-configured DeHIN vs CGA precision = %g, want substantial", f8.CGA[dLast][nLast])
	}
	if f8.VWCGA[dLast][nLast] > 2*f8.KDDA[dLast][0]+0.05 {
		t.Fatalf("VW-CGA precision %g should stay near the profile floor %g",
			f8.VWCGA[dLast][nLast], f8.KDDA[dLast][0])
	}
}

func TestGrowthAblation(t *testing.T) {
	w := quickBench(t)
	r, err := RunGrowthAblation(w)
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.Distances) - 1
	// Exact matching on a synchronized snapshot is the easiest setting.
	if r.Synchronized[last].Precision < r.GrownTolerant[last].Precision-1e-9 {
		t.Fatalf("synchronized precision %g < grown-tolerant %g",
			r.Synchronized[last].Precision, r.GrownTolerant[last].Precision)
	}
	// A mis-specified exact matcher against a grown crawl collapses.
	if r.GrownExact[last].Precision > r.GrownTolerant[last].Precision {
		t.Fatalf("exact matcher on grown aux (%g) should not beat tolerant (%g)",
			r.GrownExact[last].Precision, r.GrownTolerant[last].Precision)
	}
	// Growth-tolerant attack still works after growth.
	if r.GrownTolerant[last].Precision < 0.3 {
		t.Fatalf("growth-tolerant precision %g collapsed", r.GrownTolerant[last].Precision)
	}
}

func TestBaselineAblation(t *testing.T) {
	w := quickBench(t)
	r, err := RunBaselineAblation(w)
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.Densities) - 1
	// DeHIN beats the profile-only attack on dense targets.
	if r.DeHIN1[last] <= r.ProfileOnly[last] {
		t.Fatalf("DeHIN %g <= profile-only %g", r.DeHIN1[last], r.ProfileOnly[last])
	}
}

// TestBaselineAblationNeedsDistancesZeroAndOne: both DeHIN columns are
// Table 2 cells, so a sweep without n = 0 or n = 1 is an error, not a
// missing column.
func TestBaselineAblationNeedsDistancesZeroAndOne(t *testing.T) {
	p := QuickParams()
	p.AuxUsers = 2000
	p.TargetSize = 150
	p.Densities = []float64{0.01}
	for _, d := range [][]int{{1, 2}, {0, 2}} {
		p.Distances = d
		if _, err := Run("ablation-baseline", p); err == nil {
			t.Fatalf("distances %v: no error", d)
		}
	}
}

func TestHomogeneousAblation(t *testing.T) {
	w := quickBench(t)
	r, err := RunHomogeneousAblation(w)
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.Distances) - 1
	for li, name := range r.Names {
		if r.Single[li][last] > r.All[last]+1e-9 {
			t.Fatalf("homogeneous %s (%g) beats heterogeneous (%g)",
				name, r.Single[li][last], r.All[last])
		}
	}
}

func TestUtilityTradeoff(t *testing.T) {
	w := quickBench(t)
	r, err := RunUtility(w)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]UtilityRow{}
	for _, row := range r.Rows {
		byName[row.Scheme] = row
	}
	kdda := byName["KDDA (ID randomization)"]
	cga := byName["CGA"]
	vw := byName["VW-CGA"]
	kcopy := byName["k-copy automorphism (k=2)"]
	if kcopy.Precision < kdda.Precision-1e-9 {
		t.Fatalf("k-copy lowered precision: %g vs %g (structural anonymity inside the release must not matter)",
			kcopy.Precision, kdda.Precision)
	}
	if kdda.EdgesAdded != 0 || kdda.WeightL1 != 0 {
		t.Fatal("KDDA should cost nothing")
	}
	if cga.EdgesAdded == 0 || vw.EdgesAdded == 0 {
		t.Fatal("CGA variants must add edges")
	}
	// Section 6.3: VW-CGA buys privacy (lower precision) at higher
	// information loss than CGA.
	if vw.Precision > cga.Precision+1e-9 {
		t.Fatalf("VW-CGA precision %g should be <= CGA %g", vw.Precision, cga.Precision)
	}
	if vw.FakeWeight <= cga.FakeWeight {
		t.Fatalf("VW-CGA fake weight %d should exceed CGA %d", vw.FakeWeight, cga.FakeWeight)
	}
}

func TestPerturbAblation(t *testing.T) {
	w := quickBench(t)
	r, err := RunPerturbAblation(w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rates[0] != 0 {
		t.Fatal("sweep must include the unperturbed point")
	}
	// Rate 0 equals the plain attack; heavy perturbation must hurt.
	if r.Precision[0] < r.Precision[len(r.Precision)-1] {
		t.Fatalf("perturbation helped the attacker: %v", r.Precision)
	}
	if r.Precision[len(r.Precision)-1] > 0.8*r.Precision[0]+0.05 {
		t.Fatalf("40%% perturbation barely hurt: %v", r.Precision)
	}
	// Utility cost grows with the rate.
	for i := 1; i < len(r.EditRatio); i++ {
		if r.EditRatio[i] < r.EditRatio[i-1]-1e-9 {
			t.Fatalf("edit ratio not monotone: %v", r.EditRatio)
		}
	}
}

func TestBottleneck(t *testing.T) {
	w := quickBench(t)
	r, err := RunBottleneck(w)
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.Distances) - 1
	if r.Converged[last] != 1 {
		t.Fatalf("final distance must be fully converged: %v", r.Converged)
	}
	for i := 1; i <= last; i++ {
		if r.Risk[i] < r.Risk[i-1]-1e-9 || r.Converged[i] < r.Converged[i-1]-1e-9 {
			t.Fatalf("profiles not monotone: risk=%v conv=%v", r.Risk, r.Converged)
		}
	}
	if r.LeafFrac < 0 || r.LeafFrac > 1 {
		t.Fatalf("leaf fraction %g", r.LeafFrac)
	}
}

func TestObscurity(t *testing.T) {
	w := quickBench(t)
	r, err := RunObscurity(w)
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.Densities) - 1
	// Section 6.4: the fixed re-configured attack stays substantial on
	// BOTH anonymizations at the densest setting.
	if r.ReconfigKDDA[last] < 0.3 || r.ReconfigCGA[last] < 0.3 {
		t.Fatalf("re-configured attack collapsed: kdda=%g cga=%g",
			r.ReconfigKDDA[last], r.ReconfigCGA[last])
	}
	// The informed adversary is at least as good as the one-size-fits-all
	// attack on KDDA.
	if r.Plain[last] < r.ReconfigKDDA[last]-1e-9 {
		t.Fatalf("plain %g < reconfig-on-KDDA %g", r.Plain[last], r.ReconfigKDDA[last])
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"x", "y"}, {"longer", "z"}},
		Notes:  []string{"note"},
	}
	out := tbl.String()
	for _, want := range []string{"T\n", "a", "bb", "longer", "* note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryAndRunUnknown(t *testing.T) {
	if len(Names()) != 14 {
		t.Fatalf("registered experiments = %d: %v", len(Names()), Names())
	}
	if _, err := Run("nope", QuickParams()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// The slots RunAllTimed renders as it streams are suite ids, so a renamed
// slot cannot fall back to a worker unnoticed.
func TestRenderOnlySlots(t *testing.T) {
	var got []string
	for _, e := range suite {
		if renderOnly(e.id) {
			got = append(got, e.id)
		}
	}
	if want := []string{"figure7", "figure9", "ablation-homog"}; !slices.Equal(got, want) {
		t.Fatalf("render-only slots %v, want %v", got, want)
	}
}

// TestAllRenders exercises every suite entry's Render path end to end on
// the shared quick workbench, in one pass, checking each table has a
// title, a header, and at least one row.
func TestAllRenders(t *testing.T) {
	sh := &shared{w: quickBench(t)}
	for _, e := range suite {
		tb, err := e.run(sh)
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		if tb.Title == "" || len(tb.Header) == 0 || len(tb.Rows) == 0 {
			t.Fatalf("%s table is hollow: %+v", e.id, tb)
		}
		out := tb.String()
		if !strings.Contains(out, tb.Header[0]) {
			t.Fatalf("%s render lost its header:\n%s", e.id, out)
		}
	}
}

// TestRunRegisteredExperiment covers the Run entry point on the cheapest
// experiment id.
func TestRunRegisteredExperiment(t *testing.T) {
	p := QuickParams()
	p.AuxUsers = 2000
	p.TargetSize = 150
	p.Densities = []float64{0.01}
	p.Distances = []int{0, 1}
	tables, err := Run("table1", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 15 {
		t.Fatalf("table1 run: %v", tables)
	}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{
		Title:  "Table 2: DeHIN on things, in percent",
		Header: []string{"Density", "Prec"},
		Rows:   [][]string{{"0.001", "12.6"}, {"has,comma", `has"quote`}},
		Notes:  []string{"ignored in CSV"},
	}
	csv := tbl.CSV()
	want := "Density,Prec\n0.001,12.6\n\"has,comma\",\"has\"\"quote\"\n"
	if csv != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", csv, want)
	}
}
