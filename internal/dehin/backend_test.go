package dehin

import (
	"os"
	"testing"

	"github.com/hinpriv/dehin/internal/anonymize"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// TestDeanonymizeSteadyStateZeroAllocCSR is the compact-backend twin of
// TestDeanonymizeSteadyStateZeroAlloc: with both auxiliary and target on
// the CSR backend, a warmed query must still allocate nothing - the
// varint rows decode into the pooled per-frame cursors, never into fresh
// slices.
func TestDeanonymizeSteadyStateZeroAllocCSR(t *testing.T) {
	cfgGen := tqq.DefaultConfig(2000, 29)
	cfgGen.Communities = []tqq.CommunitySpec{{Size: 200, Density: 0.01}}
	d, err := tqq.Generate(cfgGen)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(19))
	if err != nil {
		t.Fatal(err)
	}
	aux := hin.FromGraph(d.Graph)
	target := hin.FromGraph(tgt.Graph)
	for _, cfg := range []Config{
		{MaxDistance: 2, Profile: TQQProfile(), UseIndex: true},
		{MaxDistance: 2, Profile: TQQProfile(), UseIndex: true, UseInEdges: true, NeighborTolerance: 0.25},
	} {
		a, err := NewAttack(aux, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := &queryScratch{}
		var dst []hin.EntityID
		n := target.NumEntities()
		for tv := 0; tv < n; tv++ { // warm every buffer past its high-water mark
			dst = a.deanonymize(s, dst[:0], target, hin.EntityID(tv), trace.Span{})
		}
		allocs := testing.AllocsPerRun(20, func() {
			for tv := 0; tv < 25; tv++ {
				dst = a.deanonymize(s, dst[:0], target, hin.EntityID(tv), trace.Span{})
			}
		})
		if allocs != 0 {
			t.Errorf("cfg %+v: steady-state CSR query allocated %.1f times per 25-query batch", cfg, allocs)
		}
	}
}

// runBackendDifferential generates an auxiliary network with one planted
// community, releases it KDDA-style, and asserts the attack returns
// identical candidate sets and run fingerprints whether the graphs live on
// the in-memory or the compact CSR backend.
func runBackendDifferential(t *testing.T, auxUsers, targetSize, queries int, seed uint64) {
	t.Helper()
	cfgGen := tqq.DefaultConfig(auxUsers, seed)
	cfgGen.Communities = []tqq.CommunitySpec{{Size: targetSize, Density: 0.01}}
	d, err := tqq.Generate(cfgGen)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	anon, err := anonymize.RandomizeIDs(tgt.Graph, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]hin.EntityID, len(anon.ToOrig))
	for i, t0 := range anon.ToOrig {
		truth[i] = tgt.Orig[t0]
	}
	csrAux := hin.FromGraph(d.Graph)
	csrTarget := hin.FromGraph(anon.Graph)
	for _, cfg := range []Config{
		{MaxDistance: 2, Profile: TQQProfile(), UseIndex: true},
		{MaxDistance: 2, Profile: TQQProfile(), UseIndex: true, UseInEdges: true, NeighborTolerance: 0.25},
	} {
		mem, err := NewAttack(d.Graph, cfg)
		if err != nil {
			t.Fatal(err)
		}
		csr, err := NewAttack(csrAux, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := min(queries, anon.Graph.NumEntities())
		for tv := 0; tv < n; tv++ {
			got := csr.Deanonymize(csrTarget, hin.EntityID(tv))
			want := mem.Deanonymize(anon.Graph, hin.EntityID(tv))
			if len(got) != len(want) {
				t.Fatalf("cfg %+v target %d: csr %v, mem %v", cfg, tv, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cfg %+v target %d: csr %v, mem %v", cfg, tv, got, want)
				}
			}
		}
		// Whole-run fingerprint: precision, reduction, and every per-target
		// outcome must agree.
		rm, err := mem.Run(anon.Graph, truth)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := csr.Run(csrTarget, truth)
		if err != nil {
			t.Fatal(err)
		}
		if rm.Precision != rc.Precision || rm.ReductionRate != rc.ReductionRate {
			t.Fatalf("cfg %+v: run fingerprints differ: mem %v/%v, csr %v/%v",
				cfg, rm.Precision, rm.ReductionRate, rc.Precision, rc.ReductionRate)
		}
		for i := range rm.PerTarget {
			if rm.PerTarget[i] != rc.PerTarget[i] {
				t.Fatalf("cfg %+v: per-target outcome %d differs across backends", cfg, i)
			}
		}
	}
}

// TestBackendDifferential12k is the committed-scale backend equivalence
// check (the DefaultParams auxiliary size).
func TestBackendDifferential12k(t *testing.T) {
	runBackendDifferential(t, 12000, 500, 60, 5)
}

// TestBackendDifferential50k is the PaperScaleParams-sized check. It adds
// minutes of generator time, so it only runs when PAPERSCALE is set (the
// same switch as the paperscale benchmarks in the root bench package).
func TestBackendDifferential50k(t *testing.T) {
	if os.Getenv("PAPERSCALE") == "" {
		t.Skip("set PAPERSCALE=1 to run the 50k-user backend differential")
	}
	runBackendDifferential(t, 50000, 1000, 100, 7)
}
