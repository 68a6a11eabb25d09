package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestQuantileEstimation checks the interpolated estimates against known
// distributions, within the factor-of-2 bound the power-of-two buckets
// allow.
func TestQuantileEstimation(t *testing.T) {
	r := New()
	h := r.Histogram("q_ns")
	// 1000 observations of 100ns, 50 of 10_000ns: the p50 rank (525) and
	// p95 rank (997.5) both land in 100's [64,127] bucket, the p99 rank
	// (1039.5) in 10_000's [8192,16383] bucket.
	for i := 0; i < 1000; i++ {
		h.Observe(100)
	}
	for i := 0; i < 50; i++ {
		h.Observe(10_000)
	}
	s := r.Snapshot()
	hs := s.Histograms["q_ns"]
	if hs.P50 < 64 || hs.P50 > 127 {
		t.Errorf("p50 = %d, want within [64,127]", hs.P50)
	}
	if hs.P95 < 64 || hs.P95 > 127 {
		t.Errorf("p95 = %d, want within [64,127]", hs.P95)
	}
	if hs.P99 < 8192 || hs.P99 > 16383 {
		t.Errorf("p99 = %d, want within [8192,16383]", hs.P99)
	}

	// Edge cases: empty histogram and out-of-range q.
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	if hs.Quantile(-1) > hs.Quantile(0) || hs.Quantile(2) != hs.Quantile(1) {
		t.Error("out-of-range q not clamped")
	}
	// Monotone in q.
	prev := int64(-1)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := hs.Quantile(q)
		if v < prev {
			t.Errorf("Quantile(%g) = %d < previous %d", q, v, prev)
		}
		prev = v
	}
}

// TestQuantileExposition verifies the p50/p95/p99 gauge families appear
// in the Prometheus text output and the JSON snapshot.
func TestQuantileExposition(t *testing.T) {
	r := New()
	h := r.Histogram("run_ns", "id", "t1")
	h.Observe(1000)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE run_ns_p50 gauge\n",
		"# TYPE run_ns_p95 gauge\n",
		"# TYPE run_ns_p99 gauge\n",
		`run_ns_p50{id="t1"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	hs := r.Snapshot().Histograms[`run_ns{id="t1"}`]
	if hs.P50 < 512 || hs.P50 > 1023 {
		t.Errorf("snapshot p50 = %d, want within [512,1023]", hs.P50)
	}
	if hs.P99 < hs.P50 {
		t.Errorf("p99 %d < p50 %d", hs.P99, hs.P50)
	}
}

// TestQuantileSingleObservation checks that a series holding one
// observation reports that observation exactly at p50, p95 and p99, in the
// snapshot and in both expositions, rather than a point interpolated
// inside its power-of-two bucket.
func TestQuantileSingleObservation(t *testing.T) {
	const took = 427_000_000 // a 427 ms experiment slot
	r := New()
	r.Histogram("run_ns", "id", "table2").Observe(took)
	const id = `run_ns{id="table2"}`
	hs := r.Snapshot().Histograms[id]
	if hs.P50 != took || hs.P95 != took || hs.P99 != took {
		t.Errorf("snapshot p50/p95/p99 = %d/%d/%d, want %d", hs.P50, hs.P95, hs.P99, took)
	}

	var js strings.Builder
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(js.String()), &s); err != nil {
		t.Fatal(err)
	}
	if h := s.Histograms[id]; h.P50 != took || h.P95 != took || h.P99 != took {
		t.Errorf("JSON p50/p95/p99 = %d/%d/%d, want %d", h.P50, h.P95, h.P99, took)
	}

	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"p50", "p95", "p99"} {
		want := fmt.Sprintf("run_ns_%s{id=\"table2\"} %d\n", q, took)
		if !strings.Contains(prom.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, prom.String())
		}
	}
}
