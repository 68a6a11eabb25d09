package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// The four workloads. Their names are part of the benchmark's interface:
// later changes name a workload and a metric before they write code.
const (
	wlPipeline    = "pipeline"
	wlPaperTables = "paper_tables"
	wlServeRead   = "serve_read"
	wlServeMixed  = "serve_mixed"
)

// benchRunSeconds is BENCHMARK.json's run_seconds: how long one run
// measures.
const benchRunSeconds = 20

var workloadOrder = []string{wlPipeline, wlPaperTables, wlServeRead, wlServeMixed}

// workloadWhy is the one-line reason each workload exists, as recorded in
// BENCHMARK.json. The serve_read ladder and the serve_mixed rates are
// stated here because BENCHMARK.json has no other place for them.
var workloadWhy = map[string]string{
	wlPipeline:    "batch audit, 150k users/4 planted communities: generate, anonymize, persist, mmap load, index, 5 attack runs, risk sweep; closed, 3 passes on seed-derived inputs",
	wlPaperTables: "experiments.RunAllTimed at DefaultParams: 12k-user in-memory graph, all 14 tables; in-cache graph, hundreds of short attacks; closed, 2 passes on seed-derived inputs",
	wlServeRead:   "hinriskd, 150k-user file; open loop, 2 conns, risk/topk/snapshot 90/5/5 at 4k req/s; traced run climbs 1 s rungs 6k,8k,10k,12k..20k by 1k,22k,24k req/s",
	wlServeMixed:  "same daemon; conn 1 open-loop reads at 1k req/s; conn 2 closed-loop /v1/dehin in+out ego-net snippets, 1 ms think, a reload opening each 4 s round; reads beside attacks and rebuilds",
}

// e2eMetric is one end-to-end metric. Native lists the workloads that
// exercise it; on the others the run repeats the workload's primary
// metric (see primaryMetric) because every result must carry every key.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Native []string
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, workloadOrder},
	{"audit_s", "s", "lower", 0.25, nil},
	{"tables_s", "s", "lower", 0.2, []string{wlPaperTables}},
	{"peak_rss_mb", "MiB", "lower", 0.15, workloadOrder},
	{"read_p50_us", "us", "lower", 0.25, []string{wlServeRead}},
	{"read_p99_us", "us", "lower", 0.25, nil},
	{"read_knee_qps", "req/s", "higher", 0.25, nil},
	{"attack_p50_ms", "ms", "lower", 0.25, []string{wlServeMixed}},
	{"attack_p99_ms", "ms", "lower", 0.25, nil},
	{"reload_s", "s", "lower", 0.25, []string{wlServeMixed}},
}

// primaryMetric is the metric a workload repeats under the names it does
// not exercise.
var primaryMetric = map[string]string{
	wlPipeline:    "setup_s",
	wlPaperTables: "tables_s",
	wlServeRead:   "read_p50_us",
	wlServeMixed:  "attack_p50_ms",
}

// layerMetric is one per-layer metric of the traced run: the module it
// measures, the end-to-end metric it should move and on which
// workloads. Kind says how to compare two runs: "exact" counts repeat
// bit for bit for a seed, "spread" counts depend on scheduling and are
// compared by their spread, "time" values are timings.
type layerMetric struct {
	Name      string
	Unit      string
	Better    string
	Module    string
	Kind      string
	Moves     string
	Workloads []string
}

var (
	wlBatch = []string{wlPipeline, wlPaperTables}
	wlServe = []string{wlServeRead, wlServeMixed}
	wlAll   = workloadOrder
)

// experimentIDs are the 14 RunAllTimed slots, in suite order.
var experimentIDs = []string{
	"table1", "figure7", "table2", "table3", "figure9", "table4", "figure8",
	"ablation-growth", "ablation-baseline", "ablation-homog", "utility",
	"ablation-perturb", "ablation-bottleneck", "obscurity",
}

func layerCatalog() []layerMetric {
	ls := []layerMetric{
		{"tqq.generate_s", "s", "lower", "tqq", "time", "setup_s on pipeline and paper_tables", wlAll},
		{"tqq.edges", "count", "lower", "tqq", "exact", "setup_s on pipeline and paper_tables", wlAll},
		{"anonymize.release_s", "s", "lower", "anonymize", "time", "setup_s on pipeline", []string{wlPipeline, wlServeMixed}},
		{"hin.persist_s", "s", "lower", "hin", "time", "audit_s and peak_rss_mb on pipeline", []string{wlPipeline, wlServeRead, wlServeMixed}},
		{"hin.load_s", "s", "lower", "hin", "time", "audit_s and peak_rss_mb on pipeline; setup_s and reload_s on serve_*", []string{wlPipeline, wlServeRead, wlServeMixed}},
		{"hin.file_bytes_per_link", "B", "lower", "hin", "exact", "audit_s and peak_rss_mb on pipeline", []string{wlPipeline, wlServeRead, wlServeMixed}},
		{"hin.snippet_build_us", "us", "lower", "hin", "time", "attack_p50_ms on serve_mixed", []string{wlServeMixed}},
		{"dehin.index_s", "s", "lower", "dehin", "time", "audit_s on pipeline; setup_s and reload_s on serve_*", []string{wlPipeline, wlServeRead, wlServeMixed}},
		{"dehin.run_s", "s", "lower", "dehin", "time", "audit_s on pipeline", []string{wlPipeline}},
		{"dehin.run_cga_s", "s", "lower", "dehin", "time", "audit_s on pipeline", []string{wlPipeline}},
		{"dehin.query_us", "us", "lower", "dehin", "time", "attack_p50_ms on serve_mixed", []string{wlServeMixed}},
		{"dehin.queries", "count", "lower", "dehin", "exact", "audit_s on pipeline; tables_s; attack_p50_ms on serve_mixed", []string{wlPipeline, wlPaperTables, wlServeMixed}},
		{"dehin.candidates", "count", "lower", "dehin", "exact", "audit_s on pipeline; tables_s; attack_p50_ms on serve_mixed", []string{wlPipeline, wlPaperTables, wlServeMixed}},
		{"dehin.degree_pruned", "count", "higher", "dehin", "exact", "audit_s on pipeline; tables_s; attack_p50_ms on serve_mixed", []string{wlPipeline, wlPaperTables, wlServeMixed}},
		{"dehin.fallbacks", "count", "lower", "dehin", "exact", "audit_s on pipeline (CGA run)", []string{wlPipeline, wlPaperTables, wlServeMixed}},
		{"dehin.prune_ratio", "ratio", "higher", "dehin", "exact", "audit_s on pipeline; attack_p50_ms on serve_mixed", []string{wlPipeline, wlPaperTables, wlServeMixed}},
		{"dehin.memo_hits", "count", "higher", "dehin", "spread", "audit_s on pipeline; tables_s", []string{wlPipeline, wlPaperTables, wlServeMixed}},
		{"dehin.memo_misses", "count", "lower", "dehin", "spread", "audit_s on pipeline; attack_p50_ms on serve_mixed", []string{wlPipeline, wlPaperTables, wlServeMixed}},
		{"dehin.memo_hit_ratio", "ratio", "higher", "dehin", "spread", "audit_s on pipeline; tables_s; attack_p50_ms on serve_mixed", []string{wlPipeline, wlPaperTables, wlServeMixed}},
		{"dehin.matcher_runs", "count", "lower", "dehin", "spread", "audit_s on pipeline; attack_p50_ms on serve_mixed", []string{wlPipeline, wlPaperTables, wlServeMixed}},
		{"risk.sweep_s", "s", "lower", "risk", "time", "audit_s on pipeline", []string{wlPipeline}},
		{"risk.grid_s", "s", "lower", "risk", "time", "setup_s and reload_s on serve_*", wlServe},
		{"risk.rounds", "count", "lower", "risk", "exact", "audit_s on pipeline", []string{wlPipeline, wlServeRead, wlServeMixed}},
		{"serve.handler_risk_us", "us", "lower", "serve", "time", "read_p50_us on serve_read", wlServe},
		{"serve.handler_topk_us", "us", "lower", "serve", "time", "read_p50_us on serve_read", wlServe},
		{"serve.handler_snapshot_us", "us", "lower", "serve", "time", "read_p50_us on serve_read", wlServe},
		{"serve.handler_dehin_us", "us", "lower", "serve", "time", "attack_p50_ms on serve_mixed", []string{wlServeMixed}},
		{"serve.snapshot_build_s", "s", "lower", "serve", "time", "setup_s and reload_s on serve_*", wlServe},
		{"serve.reloads", "count", "lower", "serve", "exact", "reload_s on serve_mixed", []string{wlServeMixed}},
		{"serve.attack_rejected", "count", "lower", "serve", "exact", "attack_p99_ms on serve_mixed", []string{wlServeMixed}},
		{"net.conn_wait_us", "us", "lower", "net", "time", "read_p50_us on serve_*", wlServe},
		{"net.write_us", "us", "lower", "net", "time", "read_p50_us on serve_*", wlServe},
		{"net.ttfb_us", "us", "lower", "net", "time", "read_p50_us on serve_*", wlServe},
		{"net.read_us", "us", "lower", "net", "time", "read_p50_us on serve_*", wlServe},
		{"net.remainder_us", "us", "lower", "net", "time", "read_p50_us on serve_*", wlServe},
		{"loadgen.late_us", "us", "lower", "net", "time", "validity of the open loop: near 0 below the knee", wlServe},
		{"pipeline.audit_s", "s", "lower", "pipeline", "time", "audit_s, left ungated: the host's shared cache sets it on the reference box", []string{wlPipeline}},
		{"loadgen.knee_qps", "req/s", "higher", "net", "spread", "read_knee_qps, left ungated: too noisy on the reference box", []string{wlServeRead}},
		{"serve.read_p99_us", "us", "lower", "serve", "spread", "read_p99_us, left ungated: the host's vCPU stalls set it on the reference box", []string{wlServeRead}},
		{"serve.reload_read_p50_us", "us", "lower", "serve", "spread", "read_p50_us on serve_mixed, left ungated: host slowdowns set it on the reference box", []string{wlServeMixed}},
		{"serve.reload_read_p99_us", "us", "lower", "serve", "spread", "read tail while snapshots rebuild; too noisy to gate as read_p99_us on serve_mixed", []string{wlServeMixed}},
		{"serve.attack_p99_ms", "ms", "lower", "serve", "spread", "attack_p99_ms, left ungated: the host's vCPU stalls set it on the reference box", []string{wlServeMixed}},
	}
	for _, id := range experimentIDs {
		ls = append(ls, layerMetric{"experiments." + id + "_s", "s", "lower", "experiments", "time", "tables_s on paper_tables", []string{wlPaperTables}})
	}
	for _, class := range []string{"target", "cga", "attack"} {
		ls = append(ls,
			layerMetric{"experiments.cache_" + class + "_hits", "count", "higher", "experiments", "exact", "tables_s on paper_tables", []string{wlPaperTables}},
			layerMetric{"experiments.cache_" + class + "_misses", "count", "lower", "experiments", "exact", "tables_s on paper_tables", []string{wlPaperTables}})
	}
	return append(ls,
		layerMetric{"runtime.alloc_mb", "MiB", "lower", "runtime", "spread", "peak_rss_mb and audit_s on pipeline", wlBatch},
		layerMetric{"runtime.gc_cycles", "count", "lower", "runtime", "spread", "peak_rss_mb and audit_s on pipeline", wlBatch},
		layerMetric{"runtime.gc_pause_p99_us", "us", "lower", "runtime", "time", "read_p99_us on serve_*", wlServe},
		layerMetric{"pipeline.residual_s", "s", "lower", "reconcile", "time", "setup_s + audit_s not covered by a stage span", []string{wlPipeline}},
		layerMetric{"serve.setup_residual_s", "s", "lower", "reconcile", "time", "setup_s on serve_* not covered by load + grid + index", wlServe},
		layerMetric{"serve.reload_residual_s", "s", "lower", "reconcile", "time", "reload_s on serve_mixed not covered by load + grid + index", []string{wlServeMixed}},
		layerMetric{"trace_overhead_pct", "%", "lower", "reconcile", "time", "traced against untraced primary metric, every workload", wlAll},
	)
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// benchmarkJSON renders BENCHMARK.json from the catalog, so the file and
// the metrics a run prints cannot drift apart.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadOrder {
		doc.Workloads = append(doc.Workloads, workload{w, workloadWhy[w]})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range layerCatalog() {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// catalogMarkdown renders the per-layer table of README.md: module, kind,
// the end-to-end metric each layer metric should move, and where it is
// measured.
func catalogMarkdown() string {
	var b strings.Builder
	b.WriteString("| metric | unit | module | kind | should move | measured on |\n|---|---|---|---|---|---|\n")
	for _, m := range layerCatalog() {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n",
			m.Name, m.Unit, m.Module, m.Kind, m.Moves, strings.Join(m.Workloads, ", "))
	}
	return b.String()
}
