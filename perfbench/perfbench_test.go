package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
	"time"
)

// exactLayers are the per-layer counts that must repeat bit for bit for
// a seed; the memo and matcher counts depend on which worker's scratch
// served which query under work stealing and are reported with their
// spread instead.
var exactLayers = []string{
	"tqq.edges", "hin.file_bytes_per_link", "risk.rounds",
	"dehin.queries", "dehin.candidates", "dehin.degree_pruned", "dehin.fallbacks",
}

var spreadLayers = []string{"dehin.memo_hits", "dehin.memo_misses", "dehin.memo_hit_ratio", "dehin.matcher_runs"}

// TestCounterDeterminism runs the traced pipeline pass twice with the
// same seed, on a network small enough for a unit test, and requires
// identical exact counts.
func TestCounterDeterminism(t *testing.T) {
	users := 20000
	if testing.Short() {
		users = 8000
	}
	var runs [2]passResult
	for i := range runs {
		pr, err := pipelinePass(users, 3, true, true, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if len(pr.Problems) > 0 {
			t.Fatalf("output checks failed: %v", pr.Problems)
		}
		runs[i] = pr
	}
	for _, name := range exactLayers {
		a, okA := runs[0].Layers[name]
		b, okB := runs[1].Layers[name]
		if !okA || !okB {
			t.Errorf("%s not measured", name)
			continue
		}
		if a != b {
			t.Errorf("%s = %v then %v for the same seed", name, a, b)
		}
		if a == 0 && name != "dehin.fallbacks" { // no CGA target falls back at this size
			t.Errorf("%s is 0: the pass did no work in that layer", name)
		}
	}
	if runs[0].Layers["risk.rounds"] != sweepDistance {
		t.Errorf("risk.rounds = %v, want %d", runs[0].Layers["risk.rounds"], sweepDistance)
	}
	for _, name := range spreadLayers {
		if _, ok := runs[0].Layers[name]; !ok {
			t.Errorf("%s not measured", name)
		}
	}
	if runs[0].Trace == nil || runs[0].Trace.Spans == 0 {
		t.Fatal("traced pass exported no spans")
	}
}

// TestCatalogKinds pins which counts the catalog calls exact and which
// it reports with their spread.
func TestCatalogKinds(t *testing.T) {
	kind := map[string]string{}
	for _, m := range layerCatalog() {
		kind[m.Name] = m.Kind
	}
	for _, n := range exactLayers {
		if kind[n] != "exact" {
			t.Errorf("%s has kind %q, want exact", n, kind[n])
		}
	}
	for _, n := range spreadLayers {
		if kind[n] != "spread" {
			t.Errorf("%s has kind %q, want spread", n, kind[n])
		}
	}
}

// TestBenchmarkJSON checks the catalog against the limits BENCHMARK.json
// must meet and that the committed file is the catalog's rendering.
func TestBenchmarkJSON(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated metric name %q", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", name, better)
		}
	}
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if ls := layerCatalog(); len(ls) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(ls))
	}
	for _, m := range layerCatalog() {
		check(m.Name, m.Unit, m.Better)
		if len(m.Workloads) == 0 || m.Moves == "" || m.Module == "" {
			t.Errorf("%s: needs a module, the metric it moves and its workloads", m.Name)
		}
	}
	for _, w := range workloadOrder {
		if !nameRE.MatchString(w) {
			t.Errorf("bad workload name %q", w)
		}
		if why := workloadWhy[w]; why == "" || len(why) > 200 {
			t.Errorf("%s: why has %d characters, want 1..200", w, len(why))
		}
		if _, ok := primaryMetric[w]; !ok {
			t.Errorf("%s has no primary metric", w)
		}
	}
	want, err := benchmarkJSON(benchRunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with -benchmark-json")
	}
}

// TestCompose checks that an untraced result carries every end-to-end
// metric, copying the primary metric under the names a workload does not
// exercise, and a traced one every per-layer metric.
func TestCompose(t *testing.T) {
	oc := newOutcome()
	oc.attempted = 1
	oc.e2e["setup_s"], oc.e2e["peak_rss_mb"] = 2, 500
	res, err := compose(wlPipeline, false, oc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEnd) || !res.Correct {
		t.Fatalf("result %+v", res)
	}
	if got := res.Metrics["read_p50_us"].Value; got != 2e6 {
		t.Errorf("copied read_p50_us = %v, want the 2 s set-up in us", got)
	}
	if got := res.Metrics["audit_s"].Value; got != 2 {
		t.Errorf("copied audit_s = %v, want the 2 s set-up", got)
	}
	if _, err := compose(wlPipeline, true, oc); err == nil {
		t.Error("a traced pipeline result without its layers composed")
	}
}

// TestSelfTimes checks self time against a hand-made trace: a parent
// with two children on its track and a root on another track.
func TestSelfTimes(t *testing.T) {
	blob := []byte(`{"traceEvents":[
		{"name":"p","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},
		{"name":"a","ph":"X","ts":10,"dur":30,"pid":1,"tid":1},
		{"name":"b","ph":"X","ts":50,"dur":20,"pid":1,"tid":1},
		{"name":"r","ph":"X","ts":5,"dur":7,"pid":1,"tid":2}]}`)
	self, total, err := selfTimes(blob)
	if err != nil {
		t.Fatal(err)
	}
	us := func(v float64) float64 { return v * 1e6 }
	if us(self["p"]) != 50 || us(total["p"]) != 100 || us(self["a"]) != 30 || us(self["r"]) != 7 {
		t.Errorf("self %v total %v", self, total)
	}
}

// TestWindowP99 checks the windowed tail: a stall confined to one window
// of four does not decide it, a tail in most windows does.
func TestWindowP99(t *testing.T) {
	t0 := time.Unix(0, 0)
	rungWith := func(slow func(i int) bool) []sample {
		var ss []sample
		for i := 0; i < 4000; i++ {
			due := t0.Add(time.Duration(i) * 250 * time.Microsecond) // 4000/s for 1 s
			lat := 100 * time.Microsecond
			if slow(i) {
				lat = 20 * time.Millisecond
			}
			ss = append(ss, sample{kind: kindRisk, due: due, sent: due, done: due.Add(lat), ok: true})
		}
		return ss
	}
	// A 25 ms stall in the first window.
	if got := windowP99(rungWith(func(i int) bool { return i < 100 })); got != 100 {
		t.Errorf("one stalled window: windowP99 = %v us, want 100", got)
	}
	// Every 50th read slow, all through the rung: a 2% tail everywhere.
	if got := windowP99(rungWith(func(i int) bool { return i%50 == 0 })); got != 20000 {
		t.Errorf("tail in every window: windowP99 = %v us, want 20000", got)
	}
}

// TestLateGrowsInterleaved checks backlog detection on a rung of two
// connections whose samples arrive connection by connection: sorted by
// due time, the rung's first and last quarters are compared, not the
// halves of one connection.
func TestLateGrowsInterleaved(t *testing.T) {
	t0 := time.Unix(0, 0)
	conn := func(offset time.Duration) []sample {
		var ss []sample
		for i := 0; i < 1000; i++ {
			due := t0.Add(offset + time.Duration(i)*time.Millisecond)
			late := time.Duration(i) * 2 * time.Microsecond // 0 .. 2 ms behind by the end
			ss = append(ss, sample{kind: kindRisk, due: due, sent: due.Add(late), done: due.Add(late + 100*time.Microsecond), ok: true})
		}
		return ss
	}
	all := append(conn(0), conn(500*time.Microsecond)...)
	if lateGrows(all) {
		t.Fatal("unsorted: a growing backlog should be under-detected here, or the case tests nothing")
	}
	sortByDue(all)
	if !lateGrows(all) {
		t.Error("sorted: a backlog growing by 2 ms over the rung was not detected")
	}
}
