package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/hinpriv/dehin/internal/experiments"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/tqq"
)

// readySink notes when RunAllTimed writes its first line, which it does
// as soon as the workbench is built: that moment splits setup_s from
// tables_s. Traced, it also closes the workbench span and opens the
// tables span at that moment.
type readySink struct {
	mu     sync.Mutex
	ready  time.Time
	onFire func()
}

func (s *readySink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ready.IsZero() {
		s.ready = time.Now()
		if s.onFire != nil {
			s.onFire()
		}
	}
	return len(p), nil
}

// workbenchGenConfig is the generator configuration NewWorkbench builds
// for p: the default t.qq model plus one planted community per density
// and sample.
func workbenchGenConfig(p experiments.Params) tqq.Config {
	cfg := tqq.DefaultConfig(p.AuxUsers, p.Seed)
	for _, d := range p.Densities {
		for s := 0; s < p.SamplesPerDensity; s++ {
			cfg.Communities = append(cfg.Communities, tqq.CommunitySpec{Size: p.TargetSize, Density: d})
		}
	}
	return cfg
}

// workbenchPass is the child pass that only builds the workbench:
// generation plus the warmed releases, exactly what RunAllTimed does
// before its first line. workbenchSetups extra setup samples are taken
// per untraced paper_tables run.
const (
	workbenchPass   = "paper_tables_setup"
	workbenchSetups = 3
)

func workbenchSetup(seed uint64) (passResult, error) {
	p := experiments.DefaultParams()
	p.Seed = seed
	t0 := time.Now()
	if _, err := experiments.NewWorkbench(p); err != nil {
		return passResult{}, err
	}
	return passResult{SetupS: seconds(time.Since(t0))}, nil
}

// crossChecked indexes the experiments (table1, figure7,
// ablation-bottleneck) cheap enough to recompute serially after each pass.
var crossChecked = []int{0, 1, 12}

// tablesPass runs the whole experiment suite once at DefaultParams.
func tablesPass(seed uint64, traced bool, workdir string) (passResult, error) {
	var res passResult
	p := experiments.DefaultParams()
	p.Seed = seed
	rec := newRecorder(traced)
	layers := map[string]float64{}

	if traced {
		// The workbench calls tqq.Generate inside RunAllTimed; time the
		// same generation on its own so the layer has a number.
		st := rec.begin(trace.Span{}, "tqq.generate", true)
		ds, err := tqq.Generate(workbenchGenConfig(p))
		if err != nil {
			return res, err
		}
		layers["tqq.generate_s"] = seconds(st.end())
		layers["tqq.edges"] = float64(ds.Graph.NumEdgesTotal())
		p.Metrics = obs.New()
		rec.allocBytes, rec.gcCycles = 0, 0
	}

	root := rec.begin(trace.Span{}, "paper_tables.pass", true)
	bench := rec.begin(root.sp, "experiments.workbench", false)
	var tablesSt *stage
	sink := &readySink{onFire: func() {
		bench.end()
		tablesSt = rec.begin(root.sp, "experiments.tables", false)
	}}
	t0 := time.Now()
	tables, timings, cache, err := experiments.RunAllTimed(sink, p)
	end := time.Now()
	if err != nil {
		return res, err
	}
	if sink.ready.IsZero() {
		return res, fmt.Errorf("RunAllTimed wrote nothing")
	}
	tablesSt.end()
	root.end()
	res.SetupS = seconds(sink.ready.Sub(t0))
	res.WorkS = seconds(end.Sub(sink.ready))
	if res.RSSMB, err = peakRSSMB("self"); err != nil {
		return res, err
	}
	for _, t := range tables {
		sum := sha256.Sum256([]byte(t.String()))
		res.Tables = append(res.Tables, hex.EncodeToString(sum[:8]))
	}
	// Recompute the cheapest experiments serially, each on a fresh
	// workbench, and compare: RunAllTimed promises byte-identical tables
	// at every worker count.
	serial := p
	serial.Workers, serial.Parallelism, serial.Metrics = 1, 1, nil
	for _, j := range crossChecked {
		res.Checks++
		ts, err := experiments.Run(experimentIDs[j], serial)
		if err != nil || len(ts) == 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("serial %s: %v", experimentIDs[j], err))
			continue
		}
		sum := sha256.Sum256([]byte(ts[0].String()))
		if j >= len(res.Tables) || hex.EncodeToString(sum[:8]) != res.Tables[j] {
			res.Problems = append(res.Problems, fmt.Sprintf("%s differs between the suite and a serial run", experimentIDs[j]))
		}
	}
	for _, t := range timings {
		layers["experiments."+t.ID+"_s"] = seconds(t.Elapsed)
	}
	layers["experiments.cache_target_hits"] = float64(cache.TargetHits)
	layers["experiments.cache_target_misses"] = float64(cache.TargetMisses)
	layers["experiments.cache_cga_hits"] = float64(cache.CGAHits)
	layers["experiments.cache_cga_misses"] = float64(cache.CGAMisses)
	layers["experiments.cache_attack_hits"] = float64(cache.AttackHits)
	layers["experiments.cache_attack_misses"] = float64(cache.AttackMisses)
	if traced {
		dehinLayers(layers, counterOf(p.Metrics.Snapshot()))
		layers["runtime.alloc_mb"] = float64(rec.allocBytes) / (1 << 20)
		layers["runtime.gc_cycles"] = float64(rec.gcCycles)
		rep, err := exportTrace(rec.tr, filepath.Join(workdir, "trace-paper_tables.json"))
		if err != nil {
			return res, err
		}
		res.Trace = &rep
	}
	res.Layers = layers
	return res, nil
}
