// Command dehin runs the DeHIN de-anonymization attack against datasets on
// disk: an auxiliary dataset directory (the adversary's crawl) and a target
// dataset directory (the anonymized release), both in the tqqgen layout.
// Ground truth is matched by user label when -truth is set, enabling
// precision scoring; otherwise the attack reports candidate-set statistics
// only.
//
// Usage:
//
//	tqqgen -out data -users 20000 -communities 1000x0.01
//	dehin -aux data -community 0 -distance 2
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"github.com/hinpriv/dehin/internal/anonymize"
	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// logger carries the command's levelled stderr output; fatalf routes
// through it so every diagnostic line shares one structured format.
var logger *obs.Logger

func main() {
	var (
		auxDir    = flag.String("aux", "", "auxiliary dataset directory (required)")
		community = flag.Int("community", 0, "planted community index to release as the target")
		distance  = flag.Int("distance", 1, "max distance of utilized neighbors")
		links     = flag.String("links", "", "comma-separated link types to utilize (default all)")
		reconfig  = flag.Bool("reconfigured", false, "remove majority-strength links first (Section 6.2)")
		fallback  = flag.Bool("fallback", false, "fall back to profile-only candidates when neighbor matching empties the set")
		seed      = flag.Uint64("seed", 1, "sampling/anonymization seed")
		par       = flag.Int("parallelism", 0, "attack parallelism (0 = all cores)")
		ranked    = flag.Int("ranked", 0, "also print the top-N ranked candidates for the first ambiguous target")
		metrics   = flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090 or 127.0.0.1:0)")
		metDump   = flag.String("metrics-dump", "", "write a final JSON metrics snapshot to this file")
		traceOut  = flag.String("trace", "", "record a span timeline and write it as Chrome trace-event JSON (Perfetto/about://tracing) to this file")
		verbose   = flag.Bool("v", false, "debug-level progress logging on stderr")
	)
	flag.Parse()
	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger = obs.NewLogger(os.Stderr, level)
	if *auxDir == "" {
		fatalf("-aux is required")
	}
	ds, err := tqq.LoadDataset(*auxDir)
	if err != nil {
		fatalf("load aux: %v", err)
	}
	if len(ds.Communities) == 0 {
		fatalf("dataset has no planted communities; regenerate with tqqgen -communities")
	}
	tgt, err := tqq.CommunityTarget(ds, *community, randx.New(*seed))
	if err != nil {
		fatalf("sample target: %v", err)
	}
	anon, err := anonymize.RandomizeIDs(tgt.Graph, *seed+1)
	if err != nil {
		fatalf("anonymize: %v", err)
	}
	truth := make([]hin.EntityID, len(anon.ToOrig))
	for i, t0 := range anon.ToOrig {
		truth[i] = tgt.Orig[t0]
	}

	var reg *obs.Registry
	if *metrics != "" || *metDump != "" {
		reg = obs.New()
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
	}

	cfg := dehin.Config{
		MaxDistance:            *distance,
		Profile:                dehin.TQQProfile(),
		UseIndex:               true,
		RemoveMajorityStrength: *reconfig,
		FallbackProfileOnly:    *fallback,
		Parallelism:            *par,
		Metrics:                reg,
		Trace:                  tracer,
	}
	if *links != "" {
		for _, name := range strings.Split(*links, ",") {
			lt, ok := ds.Graph.Schema().LinkTypeID(strings.TrimSpace(name))
			if !ok {
				fatalf("unknown link type %q", name)
			}
			cfg.LinkTypes = append(cfg.LinkTypes, lt)
		}
	}
	attack, err := dehin.NewAttack(ds.Graph, cfg)
	if err != nil {
		fatalf("attack: %v", err)
	}
	start := time.Now()
	// -ranked re-queries the graph the attack matched, so prepare it once
	// and keep it.
	prepared, err := attack.PrepareTarget(anon.Graph)
	if err != nil {
		fatalf("prepare: %v", err)
	}
	res, err := attack.RunPrepared(prepared, truth)
	if err != nil {
		fatalf("run: %v", err)
	}
	elapsed := time.Since(start)

	report := dehin.NewReport(res)
	fmt.Printf("auxiliary users: %d   distance: %d\n", ds.Graph.NumEntities(), *distance)
	fmt.Print(report)
	fmt.Printf("effective anonymity after reduction: %d\n", report.EffectiveAnonymity())
	fmt.Printf("elapsed: %v\n", elapsed.Round(time.Millisecond))

	if *ranked > 0 {
		for tv, o := range res.PerTarget {
			if o.Candidates <= 1 {
				continue
			}
			fmt.Printf("\nranked candidates for ambiguous target %q (|C|=%d):\n",
				anon.Graph.Label(hin.EntityID(tv)), o.Candidates)
			rc := attack.DeanonymizeRanked(prepared, hin.EntityID(tv))
			for i, c := range rc {
				if i == *ranked {
					break
				}
				marker := ""
				if c.Entity == truth[tv] {
					marker = "   <- true counterpart"
				}
				fmt.Printf("  %2d. %-12s score %.3f%s\n", i+1, ds.Graph.Label(c.Entity), c.Score, marker)
			}
			break
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
}

func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
