// Command experiments regenerates the paper's tables and figures (and the
// repository's ablations) on the synthetic t.qq substrate.
//
// Usage:
//
//	experiments -exp table2            # one experiment, full-scale params
//	experiments -exp all -quick        # everything, reduced params
//	experiments -list                  # show experiment ids
//	experiments -exp table2 -aux 100000 -target 1000 -samples 3 -seed 7
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hinpriv/dehin/internal/experiments"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/risk"
)

// logger carries the command's levelled stderr output; fatalf routes
// through it so every diagnostic line shares one structured format.
var logger *obs.Logger

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id or 'all'")
		quick    = flag.Bool("quick", false, "use reduced parameters")
		paper    = flag.Bool("paperscale", false, "use the large 50k-user configuration (hours on one core)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		seed     = flag.Uint64("seed", 0, "override seed (0 keeps the default)")
		aux      = flag.Int("aux", 0, "override auxiliary user count")
		target   = flag.Int("target", 0, "override target graph size")
		samples  = flag.Int("samples", 0, "override samples per density")
		dens     = flag.String("densities", "", "override densities, comma-separated")
		par      = flag.Int("parallelism", 0, "attack parallelism (0 = all cores)")
		parallel = flag.Int("parallel", 0, "pipeline workers: generator shards, release warm-up, concurrent experiments (0 = all cores, 1 = one at a time)")
		timing   = flag.Bool("timing", false, "print per-experiment wall time and the workbench's build counts to stderr")
		outDir   = flag.String("out", "", "also write each table as CSV into this directory, one <experiment id>.csv per experiment")
		metrics  = flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090 or 127.0.0.1:0)")
		metDump  = flag.String("metrics-dump", "", "write a final JSON metrics snapshot to this file")
		traceOut = flag.String("trace", "", "record a span timeline and write it as Chrome trace-event JSON (Perfetto/about://tracing) to this file")
		graphIn  = flag.String("graph-in", "", "inspect a persisted CSR graph file (stats + dataset risk) and exit")
		verbose  = flag.Bool("v", false, "debug-level progress logging on stderr")
	)
	flag.Parse()
	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger = obs.NewLogger(os.Stderr, level)

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	if *graphIn != "" {
		if err := inspectGraph(*graphIn, *parallel); err != nil {
			fatalf("%v", err)
		}
		return
	}
	p := experiments.DefaultParams()
	if *paper {
		p = experiments.PaperScaleParams()
	}
	if *quick {
		p = experiments.QuickParams()
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *aux != 0 {
		p.AuxUsers = *aux
	}
	if *target != 0 {
		p.TargetSize = *target
	}
	if *samples != 0 {
		p.SamplesPerDensity = *samples
	}
	if *dens != "" {
		p.Densities = nil
		for _, s := range strings.Split(*dens, ",") {
			d, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fatalf("bad density %q: %v", s, err)
			}
			p.Densities = append(p.Densities, d)
		}
	}
	p.Parallelism = *par
	p.Workers = *parallel

	var reg *obs.Registry
	if *metrics != "" || *metDump != "" || *timing {
		reg = obs.New()
		p.Metrics = reg
	}
	if *metrics != "" {
		ln, err := obs.Serve(*metrics, reg)
		if err != nil {
			fatalf("metrics listener: %v", err)
		}
		logger.Info("metrics endpoint up", "url", fmt.Sprintf("http://%s/metrics", ln.Addr()))
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(trace.DefaultCapacity)
		p.Trace = tracer
	}
	if *verbose {
		p.Log = logger
	}

	fmt.Printf("params: aux=%d target=%d samples/density=%d densities=%v distances=%v seed=%d\n\n",
		p.AuxUsers, p.TargetSize, p.SamplesPerDensity, p.Densities, p.Distances, p.Seed)

	start := time.Now()
	var tables []*experiments.Table
	// ids[i] is the id of the experiment that rendered tables[i]; it names
	// the table's -out file.
	var ids []string
	var err error
	streamed := *exp == "all"
	if streamed {
		var perExp []experiments.ExperimentTiming
		var stats experiments.CacheStats
		tables, perExp, stats, err = experiments.RunAllTimed(os.Stdout, p)
		for _, t := range perExp {
			ids = append(ids, t.ID)
		}
		if *timing {
			for _, t := range perExp {
				//hin:allow logdiscipline -- -timing emits an aligned report, not log lines; stdout carries the result tables
				fmt.Fprintf(os.Stderr, "timing: %-20s %v\n", t.ID, t.Elapsed.Round(time.Millisecond))
			}
			//hin:allow logdiscipline -- part of the aligned -timing report
			fmt.Fprintln(os.Stderr, stats)
			printTimingQuantiles(reg)
		}
	} else {
		var w *experiments.Workbench
		w, err = experiments.NewWorkbench(p)
		if err == nil {
			// Time the experiment alone, not the workbench build, as
			// RunAllTimed's per-slot times do.
			runStart := time.Now()
			tables, err = experiments.RunOn(w, *exp)
			ids = []string{*exp}
			if *timing {
				//hin:allow logdiscipline -- -timing emits an aligned report, not log lines; stdout carries the result tables
				fmt.Fprintf(os.Stderr, "timing: %-20s %v\n", *exp, time.Since(runStart).Round(time.Millisecond))
				//hin:allow logdiscipline -- part of the aligned -timing report
				fmt.Fprintln(os.Stderr, w.Stats())
				printTimingQuantiles(reg)
			}
		}
	}
	if err != nil {
		fatalf("%v", err)
	}
	if !streamed {
		for _, t := range tables {
			fmt.Println(t)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatalf("%v", err)
		}
		for i, t := range tables {
			path := filepath.Join(*outDir, ids[i]+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if *metDump != "" {
		if err := reg.DumpJSON(*metDump); err != nil {
			fatalf("metrics dump: %v", err)
		}
		logger.Info("metrics snapshot written", "path", *metDump)
	}
	if *traceOut != "" {
		if err := tracer.DumpChromeTrace(*traceOut); err != nil {
			fatalf("trace dump: %v", err)
		}
		logger.Info("trace written", "path", *traceOut,
			"spans", tracer.Len(), "dropped", tracer.Dropped())
	}
	logger.Info("done", "elapsed", time.Since(start).Round(time.Millisecond).String())
}

// inspectGraph opens a persisted CSR graph (as written by tqqgen
// -graph-out), prints its headline statistics, and computes the dataset
// privacy risk over all link types at distances 0..2 - a quick check that
// a multi-gigabyte artifact is intact and attackable without rerunning
// the generator. Load validation and the risk sweep both run on workers
// (0 = all cores).
func inspectGraph(path string, workers int) error {
	start := time.Now()
	cf, err := hin.OpenCSRFileOpt(path, hin.CSRFileOptions{Workers: workers})
	if err != nil {
		return err
	}
	defer cf.Close() //hin:allow errdrop -- read-only inspection: nothing to lose on a close failure
	g := cf.Graph()
	fmt.Printf("%s: %d entities, %d edges (loaded+validated in %v)\n",
		path, g.NumEntities(), g.NumEdgesTotal(), time.Since(start).Round(time.Millisecond))
	if d, err := hin.Density(g); err == nil {
		fmt.Printf("  density %.6f\n", d)
	}
	s := g.Schema()
	lts := make([]hin.LinkTypeID, 0, s.NumLinkTypes())
	for lt := 0; lt < s.NumLinkTypes(); lt++ {
		fmt.Printf("  link %-10s %12d edges\n", s.LinkType(hin.LinkTypeID(lt)).Name, g.NumEdges(hin.LinkTypeID(lt)))
		lts = append(lts, hin.LinkTypeID(lt))
	}
	rs := time.Now()
	sw, err := risk.NetworkSweep(g, risk.SignatureConfig{MaxDistance: 2, LinkTypes: lts, Workers: workers})
	if err != nil {
		return err
	}
	elapsed := time.Since(rs).Round(time.Millisecond)
	for d := 0; d <= 2; d++ {
		fmt.Printf("  risk(d=%d) = %.6f\n", d, sw.Risk[d])
	}
	fmt.Printf("  (one sweep, %v)\n", elapsed)
	return nil
}

// printTimingQuantiles extends the -timing table with the p50/p95/p99
// estimates of every recorded latency histogram (generator task, attack
// run, per-experiment slot times).
func printTimingQuantiles(reg *obs.Registry) {
	s := reg.Snapshot()
	ids := make([]string, 0, len(s.Histograms))
	for id := range s.Histograms {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		h := s.Histograms[id]
		if h.Count == 0 {
			continue
		}
		//hin:allow logdiscipline -- part of the aligned -timing report
		fmt.Fprintf(os.Stderr, "timing: %-44s n=%-5d p50=%-10v p95=%-10v p99=%v\n",
			id, h.Count,
			time.Duration(h.P50).Round(time.Microsecond),
			time.Duration(h.P95).Round(time.Microsecond),
			time.Duration(h.P99).Round(time.Microsecond))
	}
}

func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
