package serve

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// flightServer starts a test server with a flight recorder at the given
// slow threshold (1ns captures everything, 1h captures only errors).
func flightServer(t *testing.T, slow time.Duration) (*Server, *trace.Flight, *testServer) {
	t.Helper()
	f := trace.NewFlight(trace.FlightConfig{Capacity: 16, SlowThreshold: slow})
	cfg := testConfig()
	cfg.Flight = f
	s := New(cfg)
	if err := s.LoadBackend(testGraph(t, 300, 5)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeIdle(t, s) })
	ts := newTestServer(s)
	t.Cleanup(ts.Close)
	return s, f, ts
}

// flightEnvelope mirrors the /debug/requests?format=json body.
type flightEnvelope struct {
	Captured        int64                 `json:"captured"`
	Total           int64                 `json:"total"`
	SlowThresholdNS int64                 `json:"slow_threshold_ns"`
	Records         []trace.RequestRecord `json:"records"`
}

func fetchFlight(t *testing.T, ts *testServer) flightEnvelope {
	t.Helper()
	var env flightEnvelope
	getJSON(t, ts, "/debug/requests?format=json", 200, &env)
	return env
}

// TestHealthz pins the readiness contract: 200 with epoch and age while a
// snapshot is served, 503 before the first load, and the age mirrored
// into the serve_snapshot_age_s gauge.
func TestHealthz(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	ts := newTestServer(s)
	defer ts.Close()

	// No snapshot yet: unavailable.
	var h healthzResponse
	getJSON(t, ts, "/v1/healthz", 503, &h)
	if h.Status != "unavailable" || h.Error == "" {
		t.Fatalf("pre-load healthz = %+v", h)
	}

	if err := s.LoadBackend(testGraph(t, 200, 9)); err != nil {
		t.Fatal(err)
	}
	defer closeIdle(t, s)
	getJSON(t, ts, "/v1/healthz", 200, &h)
	if h.Status != "ok" || h.Epoch != 1 || h.AgeS < 0 || h.AgeS > 60 {
		t.Fatalf("healthz = %+v", h)
	}
	if _, ok := cfg.Metrics.Snapshot().Gauges["serve_snapshot_age_s"]; !ok {
		t.Fatal("serve_snapshot_age_s gauge not registered")
	}
}

// TestFlightCapturesSlowDehin is the acceptance check for the tentpole: a
// forced-slow /v1/dehin (1ns threshold) must be retrievable from
// /debug/requests with its complete span tree — handler stages down
// through the attack's profile/neighbor stages and the response encode.
func TestFlightCapturesSlowDehin(t *testing.T) {
	s, f, ts := flightServer(t, time.Nanosecond)
	snip := snippetFromUser(mustGraph(t, s), 42)
	var dr dehinResponse
	postJSON(t, ts, "/v1/dehin", snip, 200, &dr)

	env := fetchFlight(t, ts)
	if env.Captured < 1 || env.Total < 1 || env.SlowThresholdNS != 1 {
		t.Fatalf("envelope counters = %+v", env)
	}
	var rec *trace.RequestRecord
	for i := range env.Records {
		if env.Records[i].Path == "/v1/dehin" {
			rec = &env.Records[i]
		}
	}
	if rec == nil {
		t.Fatalf("no /v1/dehin record in %+v", env.Records)
	}
	if rec.Method != "POST" || rec.Code != 200 || rec.Reason != "slow" || rec.Epoch != 1 {
		t.Fatalf("record = %+v", rec)
	}

	// The span tree must be complete: root, the handler stages, the
	// attack's internal stages, and the encode span.
	byName := map[string]trace.SpanRecord{}
	index := map[string]int{}
	for i, sp := range rec.Spans {
		byName[sp.Name] = sp
		index[sp.Name] = i
	}
	for _, name := range []string{"serve.dehin", "decode", "admission", "snippet", "attack", "profile_candidates", "neighbor_match", "encode"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("span %q missing from tree: %+v", name, rec.Spans)
		}
	}
	if rec.Spans[0].Name != "serve.dehin" || rec.Spans[0].Parent != -1 {
		t.Fatalf("root = %+v", rec.Spans[0])
	}
	root := index["serve.dehin"]
	for _, stage := range []string{"decode", "admission", "snippet", "attack", "encode"} {
		if byName[stage].Parent != root {
			t.Fatalf("%s parented to %d, want root %d", stage, byName[stage].Parent, root)
		}
	}
	for _, inner := range []string{"profile_candidates", "neighbor_match"} {
		if byName[inner].Parent != index["attack"] {
			t.Fatalf("%s parented to %d, want attack %d", inner, byName[inner].Parent, index["attack"])
		}
	}
	if byName["serve.dehin"].Attrs["code"] != 200 {
		t.Fatalf("root attrs = %+v", byName["serve.dehin"].Attrs)
	}
	if got := byName["attack"].Attrs["candidates"]; got != int64(dr.Candidates) {
		t.Fatalf("attack candidates attr = %d, response said %d", got, dr.Candidates)
	}
	// The flight-capture counter must match what the recorder retained.
	if got := s.cfg.Metrics.Snapshot().Counter("serve_flight_captured_total"); got != f.Captured() {
		t.Fatalf("serve_flight_captured_total = %d, recorder captured %d", got, f.Captured())
	}
}

// TestFlightTailPolicyOverHTTP pins the tail-based selection end to end:
// with a high threshold, fast successes leave no record while failures
// are always retained.
func TestFlightTailPolicyOverHTTP(t *testing.T) {
	_, f, ts := flightServer(t, time.Hour)
	getJSON(t, ts, "/v1/risk?user=5", 200, nil)
	getJSON(t, ts, "/v1/risk?user=99999", 404, nil)

	env := fetchFlight(t, ts)
	if env.Total < 2 {
		t.Fatalf("total = %d", env.Total)
	}
	if len(env.Records) != 1 {
		t.Fatalf("%d records, want only the 404", len(env.Records))
	}
	rec := env.Records[0]
	if rec.Code != 404 || rec.Reason != "error" || rec.Query != "user=99999" {
		t.Fatalf("record = %+v", rec)
	}
	if f.Captured() != 1 {
		t.Fatalf("captured = %d", f.Captured())
	}
}

// TestDebugRequestsDisabled: without a recorder the endpoint answers 404,
// so scrapes can tell "off" from "nothing captured yet".
func TestDebugRequestsDisabled(t *testing.T) {
	s := New(testConfig())
	if err := s.LoadBackend(testGraph(t, 200, 3)); err != nil {
		t.Fatal(err)
	}
	defer closeIdle(t, s)
	ts := newTestServer(s)
	defer ts.Close()
	getJSON(t, ts, "/debug/requests", 404, nil)
	getJSON(t, ts, "/debug/requests?format=json", 404, nil)
}

// TestDebugRequestsTextGolden pins the deterministic structure-only text
// page: fixed fixture, fixed request sequence, no timestamps or
// durations. Regenerate with:
//
//	go test ./internal/serve -run DebugRequestsTextGolden -update
func TestDebugRequestsTextGolden(t *testing.T) {
	s, _, ts := flightServer(t, time.Nanosecond)
	getJSON(t, ts, "/v1/risk?user=42&distance=2", 200, nil)
	getJSON(t, ts, "/v1/risk?user=99999", 404, nil)
	postJSON(t, ts, "/v1/dehin", snippetFromUser(mustGraph(t, s), 42), 200, nil)

	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	golden := filepath.Join("testdata", "debug_requests.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if string(body) != string(want) {
		t.Fatalf("text mismatch:\ngot:\n%s\nwant:\n%s", body, want)
	}
	// With durations requested, every request line gains a wall time —
	// format smoke only; content is timing-dependent.
	resp, err = http.Get(ts.URL + "/debug/requests?durations=1")
	if err != nil {
		t.Fatal(err)
	}
	durBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(durBody), "finished (threshold") {
		t.Fatalf("durations header missing:\n%s", durBody)
	}
	requireIdle(t, s)
}

// mustGraph returns the currently served graph (test convenience for
// snippet building).
func mustGraph(t *testing.T, s *Server) *hin.Graph {
	t.Helper()
	sn, err := s.acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer s.release(sn)
	g, ok := sn.g.(*hin.Graph)
	if !ok {
		t.Fatalf("served backend is %T, not *hin.Graph", sn.g)
	}
	return g
}
