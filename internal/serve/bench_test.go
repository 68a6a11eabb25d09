package serve

import (
	"testing"
	"time"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/tqq"
)

// benchGraph is testGraph without the *testing.T (benchmarks share it).
func benchGraph(users int, seed uint64) (*hin.Graph, error) {
	ds, err := tqq.Generate(tqq.DefaultConfig(users, seed))
	if err != nil {
		return nil, err
	}
	return ds.Graph, nil
}

// riskCore is the steady-state /v1/risk serving path with the HTTP
// plumbing peeled off: per-request flight recording, snapshot acquire,
// the O(1) class lookup, release, capture decision, and the endpoint
// metrics — everything the handler does except URL parsing and JSON
// encoding (both of which allocate by stdlib design and are excluded
// from the zero-alloc contract). Returns the class size as a sink.
func riskCore(s *Server, em endpointMetrics, user int) int32 {
	tm := em.latency.Time()
	fr := s.flight.StartRequest("GET", "/v1/risk", "")
	root := fr.Root("serve.risk")
	var k int32
	code := 200
	sn, err := s.acquire()
	if err != nil {
		code = 503
	} else {
		fr.SetEpoch(sn.epoch)
		k = sn.class[2][user]
		s.release(sn)
	}
	root.Attr("code", int64(code))
	fr.Finish(code)
	tm.Stop()
	em.observe(code)
	return k
}

func newBenchServer(b *testing.B, flight *trace.Flight) (*Server, endpointMetrics) {
	b.Helper()
	cfg := testConfig()
	cfg.Flight = flight
	s := New(cfg)
	g, err := benchGraph(2000, 17)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.LoadBackend(g); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s, s.newEndpointMetrics("risk")
}

// BenchmarkServeRisk is the uninstrumented baseline: flight recorder off,
// the nil-check branch is all the recording machinery costs.
func BenchmarkServeRisk(b *testing.B) {
	s, em := newBenchServer(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += riskCore(s, em, i%2000)
	}
	benchSink = int64(sink)
}

// BenchmarkServeRiskInstrumented is the same path with the flight
// recorder on and a 1ns threshold, so every iteration takes the
// worst-case route: span recording plus a ring commit. The benchdiff
// gate pins this at 0 allocs/op — the recorder must never add
// allocation to the serving path.
func BenchmarkServeRiskInstrumented(b *testing.B) {
	flight := trace.NewFlight(trace.FlightConfig{Capacity: 64, SlowThreshold: time.Nanosecond})
	s, em := newBenchServer(b, flight)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += riskCore(s, em, i%2000)
	}
	benchSink = int64(sink)
}

var benchSink int64

// BenchmarkSnapshotBuild is one snapshot build, the work a reload does
// after opening the file: the signature grid, the per-distance class
// sizes, order and risk, and the attack index, over a generated
// 30k-user graph on the compact backend, as hinriskd serves it.
func BenchmarkSnapshotBuild(b *testing.B) {
	g, err := benchGraph(30000, 17)
	if err != nil {
		b.Fatal(err)
	}
	csr := hin.FromGraph(g)
	cfg := testConfig().withDefaults()
	cfg.Metrics = nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn, err := newSnapshot(uint64(i+1), "(bench)", csr, nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += int64(sn.class[cfg.MaxDistance][0])
	}
}

// TestServeRiskInstrumentedZeroAlloc is the same assertion as the bench
// gate but local and absolute: the fully instrumented steady-state risk
// path performs zero allocations per request, captured or not.
func TestServeRiskInstrumentedZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		slow time.Duration
	}{
		{"captured", time.Nanosecond},
		{"uncaptured", time.Hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flight := trace.NewFlight(trace.FlightConfig{Capacity: 16, SlowThreshold: tc.slow})
			cfg := testConfig()
			cfg.Flight = flight
			s := New(cfg)
			if err := s.LoadBackend(testGraph(t, 300, 5)); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			em := s.newEndpointMetrics("risk")
			riskCore(s, em, 1) // warm the pool
			if got := testing.AllocsPerRun(500, func() {
				riskCore(s, em, 42)
			}); got != 0 {
				t.Fatalf("instrumented risk path allocates %.1f/op", got)
			}
		})
	}
}
