// Package bench is the repository's benchmark harness: one benchmark per
// table and figure of the paper's evaluation section (plus the ablations
// DESIGN.md lists), each regenerating the artifact end to end on the
// synthetic t.qq substrate and reporting its headline number as a
// benchmark metric. Run with
//
//	go test -bench=. -benchmem
//
// and add -v to see the rendered tables (b.Logf). cmd/experiments prints
// the same tables without the benchmark machinery.
package bench

import (
	"sync"
	"testing"

	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/experiments"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// benchParams sizes the benchmark runs; the committed DefaultParams are
// already laptop-scale, so the benches regenerate exactly the numbers
// EXPERIMENTS.md records.
func benchParams() experiments.Params {
	return experiments.DefaultParams()
}

var (
	wbOnce sync.Once
	wb     *experiments.Workbench
	wbErr  error
)

func bench(b *testing.B) *experiments.Workbench {
	b.Helper()
	wbOnce.Do(func() {
		wb, wbErr = experiments.NewWorkbench(benchParams())
	})
	if wbErr != nil {
		b.Fatal(wbErr)
	}
	return wb
}

// BenchmarkTable1 regenerates Table 1: privacy risk vs link-type subsets
// and neighbor distance on the density-0.01 target.
func BenchmarkTable1(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable1(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Render())
			last := len(r.Distances) - 1
			b.ReportMetric(r.Risk[14][last]*100, "risk_fmcr_pct")
			b.ReportMetric(r.RiskAtZero*100, "risk_n0_pct")
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7: risk averaged by number of link
// types.
func BenchmarkFigure7(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		t1, err := experiments.RunTable1(w)
		if err != nil {
			b.Fatal(err)
		}
		f7 := experiments.RunFigure7(t1)
		if i == 0 {
			b.Logf("\n%s", f7.Render())
			b.ReportMetric(f7.Series[3][len(f7.Distances)-1]*100, "risk_4types_pct")
		}
	}
}

// BenchmarkTable2 regenerates Table 2: DeHIN precision and reduction rate
// across densities 0.001-0.01 and distances 0-3.
func BenchmarkTable2(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable2(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Render())
			nd, nn := len(r.Densities)-1, len(r.Distances)-1
			b.ReportMetric(r.Cells[nd][nn].Precision*100, "prec_d010_n3_pct")
			b.ReportMetric(r.Cells[0][nn].Precision*100, "prec_d001_n3_pct")
		}
	}
}

// BenchmarkTable3 regenerates Table 3: DeHIN vs link-type subsets at the
// densest target.
func BenchmarkTable3(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable3(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Render())
			b.ReportMetric(r.Cells[14][len(r.Distances)-1].Precision*100, "prec_fmcr_pct")
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9: precision averaged by number of
// link types.
func BenchmarkFigure9(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		t3, err := experiments.RunTable3(w)
		if err != nil {
			b.Fatal(err)
		}
		f9 := experiments.RunFigure9(t3)
		if i == 0 {
			b.Logf("\n%s", f9.Render())
			b.ReportMetric(f9.Series[3][len(f9.Distances)-1]*100, "prec_4types_pct")
		}
	}
}

// BenchmarkTable4 regenerates Table 4: the re-configured DeHIN against
// Complete Graph Anonymity.
func BenchmarkTable4(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable4(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Render())
			nd, nn := len(r.Densities)-1, len(r.Distances)-1
			b.ReportMetric(r.Cells[nd][nn].Precision*100, "prec_cga_d010_pct")
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8(a)-(j): KDDA vs CGA vs VW-CGA
// precision per density panel.
func BenchmarkFigure8(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFigure8(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Render())
			nd, nn := len(r.Densities)-1, len(r.Distances)-1
			b.ReportMetric(r.KDDA[nd][nn]*100, "kdda_pct")
			b.ReportMetric(r.CGA[nd][nn]*100, "cga_pct")
			b.ReportMetric(r.VWCGA[nd][nn]*100, "vwcga_pct")
		}
	}
}

// BenchmarkAblationGrowth regenerates the time-gap ablation.
func BenchmarkAblationGrowth(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunGrowthAblation(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Render())
			last := len(r.Distances) - 1
			b.ReportMetric(r.GrownTolerant[last].Precision*100, "grown_tolerant_pct")
		}
	}
}

// BenchmarkAblationBaseline regenerates the DeHIN vs prior-attacks
// comparison.
func BenchmarkAblationBaseline(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBaselineAblation(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Render())
			last := len(r.Densities) - 1
			b.ReportMetric(r.DeHIN1[last]*100, "dehin_pct")
			b.ReportMetric(r.ProfileOnly[last]*100, "profileonly_pct")
		}
	}
}

// BenchmarkAblationHomogeneous regenerates the homogeneous-vs-
// heterogeneous ablation (the paper's Section 5.2 claim).
func BenchmarkAblationHomogeneous(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunHomogeneousAblation(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Render())
			b.ReportMetric(r.All[len(r.Distances)-1]*100, "hetero_pct")
		}
	}
}

// BenchmarkUtilityTradeoff regenerates the privacy/utility frontier
// (Section 6.3).
func BenchmarkUtilityTradeoff(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunUtility(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Render())
		}
	}
}

// BenchmarkAblationPerturb regenerates the edge-perturbation frontier
// (the Section 4.1 modification toolbox vs DeHIN).
func BenchmarkAblationPerturb(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunPerturbAblation(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Render())
			b.ReportMetric(r.Precision[len(r.Precision)-1]*100, "prec_rate40_pct")
		}
	}
}

// BenchmarkAblationBottleneck regenerates the Section 4.4 saturation
// profile.
func BenchmarkAblationBottleneck(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunBottleneck(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Render())
			b.ReportMetric(r.Converged[1]*100, "converged_n1_pct")
		}
	}
}

// BenchmarkObscurity regenerates the Section 6.4 security-by-obscurity
// comparison.
func BenchmarkObscurity(b *testing.B) {
	w := bench(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunObscurity(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Render())
			last := len(r.Densities) - 1
			b.ReportMetric(r.ReconfigKDDA[last]*100, "reconfig_kdda_pct")
			b.ReportMetric(r.ReconfigCGA[last]*100, "reconfig_cga_pct")
		}
	}
}

// BenchmarkGenerateDataset measures raw synthetic-network generation
// throughput at the benchmark scale.
func BenchmarkGenerateDataset(b *testing.B) {
	cfg := tqq.DefaultConfig(12000, 9)
	cfg.Communities = []tqq.CommunitySpec{{Size: 500, Density: 0.01}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := tqq.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate50k measures sharded generation at the
// PaperScaleParams auxiliary size (50k users, 20 planted communities).
func BenchmarkGenerate50k(b *testing.B) {
	p := experiments.PaperScaleParams()
	cfg := tqq.DefaultConfig(p.AuxUsers, p.Seed)
	for _, d := range p.Densities {
		for s := 0; s < p.SamplesPerDensity; s++ {
			cfg.Communities = append(cfg.Communities, tqq.CommunitySpec{
				Size:    p.TargetSize,
				Density: d,
			})
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tqq.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAll measures the whole pipeline - workbench construction
// (sharded generation + concurrent release warm-up) plus all fourteen
// experiments over the cached-artifact workbench - at the default scale.
func BenchmarkRunAll(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.RunAll(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) != 14 {
			b.Fatalf("got %d tables", len(tables))
		}
	}
}

// BenchmarkProjection measures event-level meta-path projection.
func BenchmarkProjection(b *testing.B) {
	g, err := tqq.GenerateEvents(tqq.DefaultEventConfig(2000, 5))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tqq.ProjectEvents(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndAttack measures one full released-target attack
// (sample, anonymize, de-anonymize all users) at distance 2.
func BenchmarkEndToEndAttack(b *testing.B) {
	w := bench(b)
	targets, err := w.Targets(len(w.Params.Densities) - 1)
	if err != nil {
		b.Fatal(err)
	}
	a, err := w.Attack(dehin.Config{MaxDistance: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := a.Run(targets[0].Graph, targets[0].Truth)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Precision*100, "precision_pct")
		}
	}
}

// BenchmarkDeanonymizeSingle measures one steady-state distance-2 query
// against the densest released target, appending into a reused buffer.
// allocs/op must be 0: all query working memory is pooled scratch (the
// deterministic assertion lives in internal/dehin's
// TestDeanonymizeSteadyStateZeroAlloc; this reports the same property under
// -benchmem).
func BenchmarkDeanonymizeSingle(b *testing.B) {
	w := bench(b)
	targets, err := w.Targets(len(w.Params.Densities) - 1)
	if err != nil {
		b.Fatal(err)
	}
	tg := targets[0].Graph
	a, err := w.Attack(dehin.Config{MaxDistance: 2})
	if err != nil {
		b.Fatal(err)
	}
	n := tg.NumEntities()
	var dst []hin.EntityID
	for tv := 0; tv < n; tv++ { // warm the pooled scratch past its high-water mark
		dst = a.DeanonymizeAppend(dst[:0], tg, hin.EntityID(tv))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = a.DeanonymizeAppend(dst[:0], tg, hin.EntityID(i%n))
	}
}

// BenchmarkDeanonymizeCold measures one distance-2 query on a reset memo:
// queries alternate between the releases of the two densest targets, so
// the pooled scratch's memo is rebound (and emptied) before every query
// and each one rebuilds its depth-1 neighbour graphs from scratch. This
// is the neighbour stage BenchmarkDeanonymizeSingle's warm memo mostly
// skips. allocs/op must be 0, as for the warm query.
func BenchmarkDeanonymizeCold(b *testing.B) {
	w := bench(b)
	var releases [2]*hin.Graph
	for k := range releases {
		targets, err := w.Targets(len(w.Params.Densities) - 1 - k)
		if err != nil {
			b.Fatal(err)
		}
		releases[k] = targets[0].Graph
	}
	a, err := w.Attack(dehin.Config{MaxDistance: 2})
	if err != nil {
		b.Fatal(err)
	}
	query := func(dst []hin.EntityID, i int) []hin.EntityID {
		tg := releases[i%2]
		return a.DeanonymizeAppend(dst[:0], tg, hin.EntityID(i/2%tg.NumEntities()))
	}
	n := 2 * max(releases[0].NumEntities(), releases[1].NumEntities())
	var dst []hin.EntityID
	for i := 0; i < n; i++ { // warm the pooled scratch past its high-water mark
		dst = query(dst, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = query(dst, i)
	}
}

// BenchmarkDeanonymizeInstrumented is BenchmarkDeanonymizeSingle with a
// live obs registry attached to the attack. The per-query events batch in
// the scratch and flush once per query, so this must also stay 0 allocs/op
// and within a few percent of the uninstrumented number (OBSERVABILITY.md
// records the measured overhead; BENCH_3.json pins both series).
func BenchmarkDeanonymizeInstrumented(b *testing.B) {
	w := bench(b)
	targets, err := w.Targets(len(w.Params.Densities) - 1)
	if err != nil {
		b.Fatal(err)
	}
	tg := targets[0].Graph
	a, err := w.Attack(dehin.Config{MaxDistance: 2, Metrics: obs.New()})
	if err != nil {
		b.Fatal(err)
	}
	n := tg.NumEntities()
	var dst []hin.EntityID
	for tv := 0; tv < n; tv++ {
		dst = a.DeanonymizeAppend(dst[:0], tg, hin.EntityID(tv))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = a.DeanonymizeAppend(dst[:0], tg, hin.EntityID(i%n))
	}
}

// BenchmarkInducedSample measures target sampling from the auxiliary
// network.
func BenchmarkInducedSample(b *testing.B) {
	w := bench(b)
	rng := randx.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tqq.RandomSample(w.Dataset, 500, rng); err != nil {
			b.Fatal(err)
		}
	}
}
