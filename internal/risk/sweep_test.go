package risk

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

func sweepTestGraph(t testing.TB, users int, seed uint64) *hin.Graph {
	t.Helper()
	cfg := tqq.DefaultConfig(users, seed)
	cfg.Communities = []tqq.CommunitySpec{{Size: users / 4, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d.Graph
}

func allLinkTypes() []hin.LinkTypeID { return []hin.LinkTypeID{0, 1, 2, 3} }

// The tentpole determinism contract: parallel Signatures is byte-identical
// at every worker count, on both backends.
func TestSignaturesWorkerFingerprint(t *testing.T) {
	g := sweepTestGraph(t, 2000, 17)
	backends := []struct {
		name string
		g    hin.GraphBackend
	}{{"mem", g}, {"csr", hin.FromGraph(g)}}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			cfg := SignatureConfig{
				MaxDistance: 3,
				LinkTypes:   allLinkTypes(),
				EntityAttrs: []int{tqq.AttrNumTags},
				Workers:     1,
			}
			want, err := Signatures(be.g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, runtime.NumCPU(), 0} {
				cfg.Workers = workers
				got, err := Signatures(be.g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("workers=%d: signature of entity %d differs", workers, v)
					}
				}
			}
		})
	}
}

// An empty LinkTypes means every schema link type, as in dehin.Config:
// it refines exactly as the explicit full list does.
func TestEmptyLinkTypesMeansAll(t *testing.T) {
	g := sweepTestGraph(t, 600, 5)
	cfg := SignatureConfig{MaxDistance: 2, EntityAttrs: []int{tqq.AttrNumTags}}
	empty, err := Signatures(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LinkTypes = allLinkTypes()
	all, err := Signatures(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxDistance = 0
	attrsOnly, err := Signatures(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if Cardinality(all) <= Cardinality(attrsOnly) {
		t.Fatalf("refinement split nothing: %d classes at distance 2, %d at 0", Cardinality(all), Cardinality(attrsOnly))
	}
	for v := range all {
		if empty[v] != all[v] {
			t.Fatalf("entity %d: empty LinkTypes gives %x, all link types %x", v, empty[v], all[v])
		}
	}
}

// NetworkSweep must agree bit-for-bit with the per-distance calls it
// replaces, at every distance.
func TestNetworkSweepMatchesPerDistanceCalls(t *testing.T) {
	g := sweepTestGraph(t, 600, 3)
	cfg := SignatureConfig{
		MaxDistance: 3,
		LinkTypes:   allLinkTypes(),
		EntityAttrs: []int{tqq.AttrNumTags},
	}
	res, err := NetworkSweep(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Risk) != 4 || len(res.Cardinality) != 4 {
		t.Fatalf("result lengths: risk %d card %d", len(res.Risk), len(res.Cardinality))
	}
	for d := 0; d <= cfg.MaxDistance; d++ {
		c := cfg
		c.MaxDistance = d
		r, err := NetworkRisk(g, c)
		if err != nil {
			t.Fatal(err)
		}
		if res.Risk[d] != r {
			t.Fatalf("distance %d: sweep risk %g != NetworkRisk %g", d, res.Risk[d], r)
		}
		card, err := NetworkCardinality(g, c)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cardinality[d] != card {
			t.Fatalf("distance %d: sweep cardinality %d != NetworkCardinality %d", d, res.Cardinality[d], card)
		}
		if math.Abs(res.Risk[d]-float64(card)/float64(g.NumEntities())) > 1e-12 {
			t.Fatalf("distance %d: risk %g != C/N (Theorem 1)", d, res.Risk[d])
		}
	}
	// Final signatures equal a plain Signatures run.
	sigs, err := Signatures(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range sigs {
		if res.Sigs[v] != sigs[v] {
			t.Fatalf("final signature of entity %d differs", v)
		}
	}
}

// SignatureGrid row d must be bit-identical to a standalone Signatures run
// at MaxDistance=d — the contract that lets the serving layer answer any
// (user, distance) query from one precomputed sweep.
func TestSignatureGridMatchesPerDistanceCalls(t *testing.T) {
	g := sweepTestGraph(t, 500, 21)
	cfg := SignatureConfig{
		MaxDistance: 3,
		LinkTypes:   allLinkTypes(),
		EntityAttrs: []int{tqq.AttrNumTags},
	}
	grid, err := SignatureGrid(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != cfg.MaxDistance+1 {
		t.Fatalf("grid rows = %d, want %d", len(grid), cfg.MaxDistance+1)
	}
	for d := 0; d <= cfg.MaxDistance; d++ {
		c := cfg
		c.MaxDistance = d
		want, err := Signatures(g, c)
		if err != nil {
			t.Fatal(err)
		}
		if len(grid[d]) != len(want) {
			t.Fatalf("row %d length %d, want %d", d, len(grid[d]), len(want))
		}
		for v := range want {
			if grid[d][v] != want[v] {
				t.Fatalf("distance %d: grid signature of entity %d differs from standalone run", d, v)
			}
		}
	}
	if _, err := SignatureGrid(g, SignatureConfig{MaxDistance: -1}); err == nil {
		t.Fatal("negative MaxDistance must error")
	}
}

// Round-d signatures do not depend on MaxDistance: the observer at round d
// must see exactly what a standalone MaxDistance=d run computes. This is
// the equivalence NetworkSweep and ConvergenceProfile build on.
func TestSweepObserverRoundEquivalence(t *testing.T) {
	g := sweepTestGraph(t, 400, 9)
	cfg := SignatureConfig{
		MaxDistance: 3,
		LinkTypes:   allLinkTypes(),
		EntityAttrs: []int{tqq.AttrYob, tqq.AttrNumTags},
	}
	perRound := make([][]uint64, cfg.MaxDistance+1)
	_, err := sweep(g, cfg, func(d int, sigs []uint64) {
		perRound[d] = append([]uint64(nil), sigs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d <= cfg.MaxDistance; d++ {
		c := cfg
		c.MaxDistance = d
		want, err := Signatures(g, c)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if perRound[d][v] != want[v] {
				t.Fatalf("round %d entity %d: observer saw different signature", d, v)
			}
		}
	}
}

func TestNetworkSweepErrors(t *testing.T) {
	g := sweepTestGraph(t, 50, 1)
	if _, err := NetworkSweep(g, SignatureConfig{MaxDistance: -1}); err == nil {
		t.Fatal("negative MaxDistance accepted")
	}
	if _, err := NetworkSweep(g, SignatureConfig{LinkTypes: []hin.LinkTypeID{99}}); err == nil {
		t.Fatal("bad link type accepted")
	}
	if _, err := NetworkSweep(g, SignatureConfig{EntityAttrs: []int{-1}}); err == nil {
		t.Fatal("negative attr index accepted")
	}
	if _, err := NetworkSweep(g, SignatureConfig{EntityAttrs: []int{400}}); err == nil {
		t.Fatal("out-of-range attr index accepted")
	}
}

// The refinement's steady state must not allocate per entity: total
// allocations of a sweep are a small constant (result arrays, worker
// scratch) regardless of entity count.
func TestSignaturesSteadyStateAllocs(t *testing.T) {
	small := sweepTestGraph(t, 500, 5)
	big := sweepTestGraph(t, 2000, 5)
	cfg := SignatureConfig{
		MaxDistance: 2,
		LinkTypes:   allLinkTypes(),
		EntityAttrs: []int{tqq.AttrNumTags},
		Workers:     1,
	}
	measure := func(g hin.GraphBackend) float64 {
		// Warm once so high-water scratch growth is excluded.
		if _, err := Signatures(g, cfg); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Signatures(g, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	aSmall, aBig := measure(small), measure(big)
	if aSmall > 64 || aBig > 64 {
		t.Fatalf("sweep allocations not constant-bounded: %g (n=500) %g (n=2000)", aSmall, aBig)
	}
	if aBig > aSmall+8 {
		t.Fatalf("sweep allocations scale with entities: %g (n=500) -> %g (n=2000)", aSmall, aBig)
	}
}

// Instrumentation satellite: the sweep must feed obs counters and emit a
// valid span tree, without perturbing results.
func TestSweepInstrumentation(t *testing.T) {
	g := sweepTestGraph(t, 300, 7)
	plain := SignatureConfig{
		MaxDistance: 2,
		LinkTypes:   allLinkTypes(),
		EntityAttrs: []int{tqq.AttrNumTags},
	}
	want, err := Signatures(g, plain)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.New()
	tr := trace.New(1024)
	cfg := plain
	cfg.Metrics = met
	cfg.Trace = tr
	cfg.Workers = 2
	got, err := Signatures(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatal("instrumented sweep changed signatures")
		}
	}
	if v := met.Counter("risk_sweeps_total").Value(); v != 1 {
		t.Fatalf("risk_sweeps_total = %d", v)
	}
	if v := met.Counter("risk_sweep_entities_total").Value(); v != int64(g.NumEntities()) {
		t.Fatalf("risk_sweep_entities_total = %d, want %d", v, g.NumEntities())
	}
	if v := met.Counter("risk_sweep_rounds_total").Value(); v != 2 {
		t.Fatalf("risk_sweep_rounds_total = %d", v)
	}
	if c := met.Histogram("risk_sweep_ns").Count(); c != 1 {
		t.Fatalf("risk_sweep_ns count = %d", c)
	}
	var tb strings.Builder
	if err := tr.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	stats, err := trace.ValidateChromeTrace([]byte(tb.String()))
	if err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	if stats.Names["risk.sweep"] != 1 {
		t.Fatalf("risk.sweep spans = %d, want 1 (names: %v)", stats.Names["risk.sweep"], stats.Names)
	}
	if stats.Names["round"] != 2 {
		t.Fatalf("round spans = %d, want 2", stats.Names["round"])
	}
}

func BenchmarkSignaturesDistance2Workers4(b *testing.B) {
	g := sweepTestGraph(b, 1000, 3)
	sc := SignatureConfig{
		MaxDistance: 2,
		LinkTypes:   allLinkTypes(),
		EntityAttrs: []int{tqq.AttrNumTags},
		Workers:     4,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Signatures(g, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkSweepDistance3(b *testing.B) {
	g := sweepTestGraph(b, 1000, 3)
	sc := SignatureConfig{
		MaxDistance: 3,
		LinkTypes:   allLinkTypes(),
		EntityAttrs: []int{tqq.AttrNumTags},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NetworkSweep(g, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// ClassSizes must read the partition exactly as the map-based
// definitions do (Risks, Cardinality, DatasetRisk), bit for bit, through
// table collisions and wrap-around: short vectors over few distinct
// values, most of them repeated.
func TestClassSizesMatchesDefinitions(t *testing.T) {
	rng := randx.New(41)
	for trial := 0; trial < 300; trial++ {
		sigs := make([]uint64, rng.Intn(40))
		vals := make([]uint64, 1+rng.Intn(12))
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		for i := range sigs {
			sigs[i] = vals[rng.Intn(len(vals))]
		}
		sizes, classes, r := ClassSizes(sigs)
		if classes != Cardinality(sigs) {
			t.Fatalf("trial %d: %d classes, Cardinality %d", trial, classes, Cardinality(sigs))
		}
		if want := DatasetRisk(sigs, nil); r != want {
			t.Fatalf("trial %d: risk %v, DatasetRisk %v", trial, r, want)
		}
		for v, k := range Risks(sigs, nil) {
			if 1/float64(sizes[v]) != k {
				t.Fatalf("trial %d: entity %d has class size %d, Risks says 1/%v", trial, v, sizes[v], 1/k)
			}
		}
	}
}
