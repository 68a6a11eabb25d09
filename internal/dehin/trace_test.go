package dehin

import (
	"strings"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// traceFixture builds a small generated dataset and community target for
// the tracing tests (same shape as the differential-test fixtures).
func traceFixture(t *testing.T) (*tqq.Dataset, *tqq.Target) {
	t.Helper()
	cfgGen := tqq.DefaultConfig(1500, 41)
	cfgGen.Communities = []tqq.CommunitySpec{{Size: 150, Density: 0.01}}
	d, err := tqq.Generate(cfgGen)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return d, tgt
}

// TestRunTraceSpans verifies the Run-level tracing contract: a traced Run
// records one dehin.run root plus rate-limited query samples with their
// stage children, the export passes the Perfetto invariants, and tracing
// does not perturb attack results.
func TestRunTraceSpans(t *testing.T) {
	d, tgt := traceFixture(t)
	base := Config{MaxDistance: 2, Profile: TQQProfile(), UseIndex: true, Parallelism: 4}

	plain, err := NewAttack(d.Graph, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(tgt.Graph, tgt.Orig)
	if err != nil {
		t.Fatal(err)
	}

	traced := base
	tr := trace.New(trace.DefaultCapacity)
	traced.Trace = tr
	a, err := NewAttack(d.Graph, traced)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Run(tgt.Graph, tgt.Orig)
	if err != nil {
		t.Fatal(err)
	}
	if got.Precision != want.Precision || got.ReductionRate != want.ReductionRate {
		t.Fatalf("tracing changed results: %v/%v vs %v/%v",
			got.Precision, got.ReductionRate, want.Precision, want.ReductionRate)
	}

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	stats, err := trace.ValidateChromeTrace([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d spans with a default-capacity buffer", tr.Dropped())
	}
	if stats.Names["dehin.run"] != 1 {
		t.Fatalf("dehin.run spans = %d, want 1 (names: %v)", stats.Names["dehin.run"], stats.Names)
	}
	// 150 targets sampled every querySampleEvery-th query.
	wantQueries := (tgt.Graph.NumEntities() + querySampleEvery - 1) / querySampleEvery
	if q := stats.Names["query"]; q != wantQueries {
		t.Fatalf("query spans = %d, want %d", q, wantQueries)
	}
	if stats.Names["query"] > querySampleCap {
		t.Fatalf("query spans %d exceed cap %d", stats.Names["query"], querySampleCap)
	}
	// Every sampled query carries its pipeline-stage children.
	if stats.Names["profile_candidates"] != stats.Names["query"] {
		t.Fatalf("profile_candidates = %d, want one per query (%d)",
			stats.Names["profile_candidates"], stats.Names["query"])
	}
}

// TestSingleQueryPathsNeverTraced pins the hot-path contract from the
// Config.Trace docs: even with a tracer configured, Deanonymize and
// DeanonymizeAppend record no spans and a warmed query stays
// allocation-free — only Run samples queries.
func TestSingleQueryPathsNeverTraced(t *testing.T) {
	d, tgt := traceFixture(t)
	tr := trace.New(trace.DefaultCapacity)
	a, err := NewAttack(d.Graph, Config{
		MaxDistance: 2, Profile: TQQProfile(), UseIndex: true, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := a.PrepareTarget(tgt.Graph)
	if err != nil {
		t.Fatal(err)
	}

	var dst []hin.EntityID
	n := tgt.Graph.NumEntities()
	for tv := 0; tv < n; tv++ {
		dst = a.DeanonymizeAppend(dst[:0], prepared, hin.EntityID(tv))
	}
	if tr.Len() != 0 {
		t.Fatalf("DeanonymizeAppend recorded %d spans; single-query paths must stay untraced", tr.Len())
	}

	// Allocation check via the pinned-scratch internal path, like
	// TestDeanonymizeSteadyStateZeroAlloc (the sync.Pool's GC interaction
	// would make the public-path count nondeterministic).
	s := &queryScratch{}
	for tv := 0; tv < n; tv++ {
		dst = a.deanonymize(s, dst[:0], prepared, hin.EntityID(tv), trace.Span{})
	}
	allocs := testing.AllocsPerRun(20, func() {
		for tv := 0; tv < 25; tv++ {
			dst = a.deanonymize(s, dst[:0], prepared, hin.EntityID(tv), trace.Span{})
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state query with a configured tracer allocated %.1f times per 25-query batch", allocs)
	}
}
