// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for about -seconds seconds, checks every
// output it measures against an oracle, and prints each metric by name
// with its unit; the last line of stdout is the JSON result:
//
//	bash perfbench/run.sh --workload pipeline --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 a separate traced run records spans around
// every call the benchmark makes into the program, writes them as a
// Chrome trace under the work directory, and the result holds the
// per-layer metrics. README.md lists the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	daemon   string
	workdir  string
	record   bool
}

// passResult is one batch pass, produced in a child process so that its
// peak RSS and heap are its own.
type passResult struct {
	SetupS   float64            `json:"setup_s"`
	WorkS    float64            `json:"work_s"`
	RSSMB    float64            `json:"rss_mb"`
	Checks   int64              `json:"checks"`
	Problems []string           `json:"problems,omitempty"`
	Pipeline *pipelineOut       `json:"pipeline,omitempty"`
	Tables   []string           `json:"tables,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Trace    *traceReport       `json:"trace,omitempty"`
}

// outcome is what a workload run measured and checked.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	problems  []string
	oracle    any // the values -record prints
}

func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		o        options
		secs     = flag.Int("seconds", 20, "how long the run measures")
		traceArg = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		pass     = flag.String("pass", "", "internal: run one pass of a batch workload and print it as JSON")
		verify   = flag.Bool("verify", false, "internal: with -pass, also run the independent output checks")
		bjson    = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the metric catalog defines it and exit")
		catalog  = flag.Bool("catalog", false, "print the per-layer metric table of README.md and exit")
	)
	flag.StringVar(&o.workload, "workload", "", "pipeline, paper_tables, serve_read or serve_mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: every input is derived from it")
	flag.StringVar(&o.daemon, "daemon", "", "hinriskd binary (serve_* workloads)")
	flag.StringVar(&o.workdir, "workdir", os.TempDir(), "directory for fixtures and trace files")
	flag.BoolVar(&o.record, "record", false, "print the oracle values of this seed to stderr")
	flag.Parse()
	o.seconds = time.Duration(*secs) * time.Second
	o.traced = *traceArg == 1

	switch {
	case *bjson:
		out, err := benchmarkJSON(benchRunSeconds)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		return
	case *catalog:
		fmt.Print(catalogMarkdown())
		return
	case *pass != "":
		var pr passResult
		var err error
		switch *pass {
		case wlPipeline:
			pr, err = pipelinePass(pipelineUsers, o.seed, o.traced, *verify, o.workdir)
		case wlPaperTables:
			pr, err = tablesPass(o.seed, o.traced, o.workdir)
		case workbenchPass:
			pr, err = workbenchSetup(o.seed)
		default:
			err = fmt.Errorf("no batch workload %q", *pass)
		}
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(pr); err != nil {
			fatal(err)
		}
		return
	}

	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fatal(err)
	}
	var oc *outcome
	var err error
	switch o.workload {
	case wlPipeline, wlPaperTables:
		oc, err = runBatch(o)
	case wlServeRead:
		oc, err = runServeRead(o)
	case wlServeMixed:
		oc, err = runServeMixed(o)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadOrder, ", "))
	}
	if err != nil {
		fatal(err)
	}
	if o.record {
		rec, err := json.Marshal(oc.oracle)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "oracle %s seed %d: %s\n", o.workload, o.seed, rec)
	}
	res, err := compose(o.workload, o.traced, oc)
	if err != nil {
		fatal(err)
	}
	for _, p := range oc.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// compose builds the result line. Untraced it carries every end-to-end
// metric: a workload's own measurement where it exercises the metric,
// otherwise its primary metric converted to the metric's unit. Traced it
// carries every per-layer metric, 0 for a layer the workload does not
// drive.
func compose(workload string, traced bool, oc *outcome) (result, error) {
	res := result{
		Correct:   oc.failed == 0 && oc.attempted > 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   map[string]metricValue{},
	}
	if traced {
		for _, m := range layerCatalog() {
			v, ok := oc.layers[m.Name]
			if !ok && contains(m.Workloads, workload) {
				return res, fmt.Errorf("traced %s run did not measure %s", workload, m.Name)
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
		}
		return res, nil
	}
	prim := primaryMetric[workload]
	var primUnit string
	for _, m := range endToEnd {
		if m.Name == prim {
			primUnit = m.Unit
		}
	}
	primS := toSeconds(oc.e2e[prim], primUnit)
	for _, m := range endToEnd {
		if contains(m.Native, workload) {
			v, ok := oc.e2e[m.Name]
			if !ok || v <= 0 {
				return res, fmt.Errorf("%s run measured no %s", workload, m.Name)
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
			continue
		}
		res.Metrics[m.Name] = metricValue{fromSeconds(primS, m.Unit), m.Unit}
	}
	return res, nil
}

func toSeconds(v float64, unit string) float64 {
	switch unit {
	case "ms":
		return v / 1e3
	case "us":
		return v / 1e6
	}
	return v
}

func fromSeconds(s float64, unit string) float64 {
	switch unit {
	case "ms":
		return s * 1e3
	case "us":
		return s * 1e6
	case "req/s":
		return 1 / s
	}
	return s
}

// A batch run makes a fixed number of passes, whatever -seconds says, so
// a faster program measures the same inputs as its parent. Pass i runs on
// input instanceSeed(seed, i). paper_tables also builds the workbench
// alone workbenchSetups more times so that setup_s is a median of several
// set-ups.
var batchPasses = map[string]int{wlPipeline: 3, wlPaperTables: 2}

func instanceSeed(seed uint64, i int) uint64 { return seed + uint64(i)*1000003 }

// runBatch runs the pipeline or paper_tables passes, each in a child
// process: untraced for the end-to-end metrics, or one untraced and one
// traced pass on the same input for the per-layer metrics and the
// tracing overhead. Each metric is the median over the passes.
func runBatch(o options) (*outcome, error) {
	oc := newOutcome()
	n := batchPasses[o.workload]
	if o.traced {
		n = 1
	}
	var passes []passResult
	var setup, work, rss []float64
	for i := 0; i < n; i++ {
		pr, err := childPass(o.workload, instanceSeed(o.seed, i), o.workdir, false, true)
		if err != nil {
			return nil, err
		}
		checkPass(o.workload, oc, pr, instanceSeed(o.seed, i))
		passes = append(passes, pr)
		setup, work, rss = append(setup, pr.SetupS), append(work, pr.WorkS), append(rss, pr.RSSMB)
	}
	if o.workload == wlPaperTables && !o.traced {
		for i := 0; i < workbenchSetups; i++ {
			pr, err := childPass(workbenchPass, instanceSeed(o.seed, i), o.workdir, false, false)
			if err != nil {
				return nil, err
			}
			setup = append(setup, pr.SetupS)
		}
	}
	oc.e2e["setup_s"] = median(setup)
	oc.e2e["peak_rss_mb"] = median(rss)
	if o.workload == wlPaperTables {
		oc.e2e["tables_s"] = median(work)
	}
	if o.traced {
		tp, err := childPass(o.workload, o.seed, o.workdir, true, false)
		if err != nil {
			return nil, err
		}
		checkPass(o.workload, oc, tp, o.seed)
		oc.check(reflect.DeepEqual(tp.Pipeline, passes[0].Pipeline) && reflect.DeepEqual(tp.Tables, passes[0].Tables),
			"the traced pass's outputs differ from the untraced pass's")
		oc.layers = tp.Layers
		if o.workload == wlPipeline {
			oc.layers["pipeline.audit_s"] = passes[0].WorkS
		}
		oc.layers["trace_overhead_pct"] = 100 * ((tp.SetupS+tp.WorkS)/(passes[0].SetupS+passes[0].WorkS) - 1)
		fmt.Fprintf(os.Stderr, "trace: %d spans in %s\n", tp.Trace.Spans, tp.Trace.Path)
		printSelfTimes(tp.Trace)
	}
	fmt.Fprintf(os.Stderr, "%s: %d untraced pass(es), setup %v s, work %v s\n", o.workload, len(passes), setup, work)
	return oc, nil
}

// checkPass counts a pass's own checks and compares its outputs with the
// values recorded for its input seed, when there are any.
func checkPass(workload string, oc *outcome, pr passResult, seed uint64) {
	for _, p := range pr.Problems {
		oc.check(false, "seed %d: %s", seed, p)
	}
	oc.attempted += pr.Checks - int64(len(pr.Problems))
	if oc.oracle == nil {
		oc.oracle = map[string]any{}
	}
	key := strconv.FormatUint(seed, 10)
	rec, recorded := recordedOracle(workload, seed)
	switch workload {
	case wlPipeline:
		out := pr.Pipeline
		oc.oracle.(map[string]any)[key] = out
		if recorded {
			var want pipelineOut
			if err := json.Unmarshal(rec, &want); err != nil {
				oc.check(false, "recorded oracle: %v", err)
				return
			}
			oc.check(out.Edges == want.Edges, "seed %d: edges %d, recorded %d", seed, out.Edges, want.Edges)
			for _, f := range []struct {
				name      string
				got, want []float64
			}{{"precision", out.Precision, want.Precision}, {"reduction", out.Reduction, want.Reduction}, {"risk", out.Risk, want.Risk}} {
				oc.check(len(f.got) == len(f.want), "seed %d: %s has %d values, recorded %d", seed, f.name, len(f.got), len(f.want))
				for j := 0; j < len(f.got) && j < len(f.want); j++ {
					oc.check(f.got[j] == f.want[j], "seed %d: %s[%d] = %v, recorded %v", seed, f.name, j, f.got[j], f.want[j])
				}
			}
			oc.check(reflect.DeepEqual(out.Cardinality, want.Cardinality), "seed %d: cardinality %v, recorded %v", seed, out.Cardinality, want.Cardinality)
		}
	case wlPaperTables:
		oc.oracle.(map[string]any)[key] = pr.Tables
		oc.check(len(pr.Tables) == len(experimentIDs), "seed %d: %d tables, want %d", seed, len(pr.Tables), len(experimentIDs))
		if recorded {
			var want []string
			if err := json.Unmarshal(rec, &want); err != nil {
				oc.check(false, "recorded oracle: %v", err)
				return
			}
			for j, id := range experimentIDs {
				oc.check(j < len(pr.Tables) && j < len(want) && pr.Tables[j] == want[j], "seed %d: %s table differs from the recorded one", seed, id)
			}
		}
	}
}

// childPass re-executes this binary for one batch pass.
func childPass(workload string, seed uint64, workdir string, traced, verify bool) (passResult, error) {
	args := []string{"-pass", workload, "-seed", strconv.FormatUint(seed, 10), "-workdir", workdir}
	if traced {
		args = append(args, "-trace", "1")
	}
	if verify {
		args = append(args, "-verify")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return passResult{}, fmt.Errorf("%s pass: %w", workload, err)
	}
	var pr passResult
	if err := json.Unmarshal(lastLine(out), &pr); err != nil {
		return passResult{}, fmt.Errorf("%s pass output: %w", workload, err)
	}
	return pr, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// printSelfTimes lists the traced run's spans by self time on stderr.
func printSelfTimes(rep *traceReport) {
	if rep == nil {
		return
	}
	names := make([]string, 0, len(rep.Self))
	for n := range rep.Self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rep.Self[names[i]] > rep.Self[names[j]] })
	w := bufio.NewWriter(os.Stderr)
	fmt.Fprintf(w, "%-28s %12s %12s\n", "span", "total_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %12.6f %12.6f\n", n, rep.Total[n], rep.Self[n])
	}
	w.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
