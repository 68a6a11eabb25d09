package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/hinpriv/dehin/internal/par"
)

// shared holds one pass's sweeps that several suite entries read, each
// computed at most once per pass: Table 1 also feeds Figure 7; Table 3
// feeds Figure 9 and ablation-homog; Table 2 plus the CGA and VW-CGA
// sweeps feed Table 4 and Figure 8; Table 2 also feeds ablation-baseline,
// and Tables 2 and 4 feed obscurity. Whichever entry asks first computes;
// the rest block on the same result. A pass is one RunOn call or one
// RunAll suite; the RunX functions themselves stay pure computations.
type shared struct {
	w          *Workbench
	t1         slot[*Table1Result]
	t2         slot[*Table2Result]
	t3         slot[*Table3Result]
	t4, vwcga4 slot[*Table4Result]
}

func (s *shared) table1() (*Table1Result, error) { return sweep(s, &s.t1, RunTable1) }
func (s *shared) table2() (*Table2Result, error) { return sweep(s, &s.t2, RunTable2) }
func (s *shared) table3() (*Table3Result, error) { return sweep(s, &s.t3, RunTable3) }
func (s *shared) table4() (*Table4Result, error) { return sweep(s, &s.t4, RunTable4) }

// vwcga is the VW-CGA sweep: Table 4's attack against completions with
// varying fake weights (Figure 8's third series).
func (s *shared) vwcga() (*Table4Result, error) {
	return sweep(s, &s.vwcga4, func(w *Workbench) (*Table4Result, error) { return runCGASweep(w, true) })
}

// slot holds one sweep's result: the first sweep call on it computes the
// result, and every other one - concurrent ones included - blocks on that
// computation and shares it.
type slot[T any] struct {
	once sync.Once
	val  T
	err  error
}

// sweep returns run(s.w) from sl, computing it at most once per pass.
func sweep[T any](s *shared, sl *slot[T], run func(*Workbench) (T, error)) (T, error) {
	sl.once.Do(func() { sl.val, sl.err = run(s.w) })
	return sl.val, sl.err
}

// render turns a result into its rendered table.
func render[R interface{ Render() *Table }](r R, err error) (*Table, error) {
	if err != nil {
		return nil, err
	}
	return r.Render(), nil
}

// suite is every experiment id (DESIGN.md's per-experiment index) with
// the code that renders its table, in RunAll's output order - the order
// the serial pipeline always printed, kept stable no matter which
// experiment finishes first.
var suite = []struct {
	id  string
	run func(*shared) (*Table, error)
}{
	{"table1", func(s *shared) (*Table, error) { return render(s.table1()) }},
	{"figure7", func(s *shared) (*Table, error) {
		t1, err := s.table1()
		if err != nil {
			return nil, err
		}
		return RunFigure7(t1).Render(), nil
	}},
	{"table2", func(s *shared) (*Table, error) { return render(s.table2()) }},
	{"table3", func(s *shared) (*Table, error) { return render(s.table3()) }},
	{"figure9", func(s *shared) (*Table, error) {
		t3, err := s.table3()
		if err != nil {
			return nil, err
		}
		return RunFigure9(t3).Render(), nil
	}},
	{"table4", func(s *shared) (*Table, error) { return render(s.table4()) }},
	{"figure8", func(s *shared) (*Table, error) { return render(s.figure8()) }},
	{"ablation-growth", func(s *shared) (*Table, error) { return render(RunGrowthAblation(s.w)) }},
	{"ablation-baseline", func(s *shared) (*Table, error) { return render(s.baselineAblation()) }},
	{"ablation-homog", func(s *shared) (*Table, error) { return render(s.homogeneousAblation()) }},
	{"utility", func(s *shared) (*Table, error) { return render(RunUtility(s.w)) }},
	{"ablation-perturb", func(s *shared) (*Table, error) { return render(RunPerturbAblation(s.w)) }},
	{"ablation-bottleneck", func(s *shared) (*Table, error) { return render(RunBottleneck(s.w)) }},
	{"obscurity", func(s *shared) (*Table, error) { return render(s.obscurity()) }},
}

// renderOnly reports whether suite slot id only renders a sweep that an
// earlier slot computes: RunAllTimed runs these as it streams, not on a
// worker.
func renderOnly(id string) bool {
	switch id {
	case "figure7", "figure9", "ablation-homog":
		return true
	}
	return false
}

// Names lists the experiment ids, sorted.
func Names() []string {
	out := make([]string, len(suite))
	for i, e := range suite {
		out[i] = e.id
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id on a fresh workbench.
func Run(id string, p Params) ([]*Table, error) {
	w, err := NewWorkbench(p)
	if err != nil {
		return nil, err
	}
	return RunOn(w, id)
}

// RunOn executes one experiment by id on a caller-owned workbench,
// sharing its releases with whatever ran before.
func RunOn(w *Workbench, id string) ([]*Table, error) {
	for _, e := range suite {
		if e.id == id {
			t, err := e.run(&shared{w: w})
			if err != nil {
				return nil, err
			}
			return []*Table{t}, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
}

// ExperimentTiming records one experiment slot's wall time inside RunAll.
// Under concurrency the times overlap; their sum exceeds the suite's
// wall clock.
type ExperimentTiming struct {
	ID      string
	Elapsed time.Duration
}

// RunAll executes every experiment on one shared workbench, computing
// each sweep that several experiments read once (see shared).
func RunAll(p Params) ([]*Table, error) {
	out, _, _, err := RunAllTimed(nil, p)
	return out, err
}

// RunAllTimed is RunAll streaming each rendered table to sink as soon as
// its turn in the fixed order comes (nil collects silently), and
// returning per-experiment wall times and the workbench's build counts
// alongside the tables.
//
// Independent experiments run concurrently over the shared workbench, at
// most p.Workers at a time (0 = GOMAXPROCS). Shared sweeps are computed
// once in whichever slot needs them first. Output is streamed to sink in
// the fixed suite order as a finished slot reaches the front, so the
// rendered tables are byte-identical for every Workers value -
// concurrency moves only the timing lines.
func RunAllTimed(sink io.Writer, p Params) ([]*Table, []ExperimentTiming, CacheStats, error) {
	w, err := NewWorkbench(p)
	if err != nil {
		return nil, nil, CacheStats{}, err
	}
	if sink != nil {
		//hin:allow errdrop -- progress narration: a sink write failure must not abort the run
		fmt.Fprintf(sink, "workbench ready: %d users, %d edges\n\n",
			w.Dataset.Graph.NumEntities(), w.Dataset.Graph.NumEdgesTotal())
	}
	sh := &shared{w: w}

	type slotResult struct {
		tbl     *Table
		err     error
		elapsed time.Duration
	}
	results := make([]slotResult, len(suite))
	done := make([]chan struct{}, len(suite))
	for i := range done {
		done[i] = make(chan struct{})
	}
	// One span per experiment slot, each on its own lane: the exported
	// timeline shows the actual concurrency schedule - which slots ran
	// together and which serialized behind a shared sweep.
	root := p.Trace.Start("experiments.run_all")
	root.Attr("slots", int64(len(suite)))
	// runSlot runs suite slot i on its own lane and publishes its result.
	runSlot := func(i int) {
		sp := root.Fork(suite[i].id)
		//hin:allow determinism -- per-slot wall time feeds the -timing report and histograms only; experiment tables never see it
		start := time.Now()
		tbl, err := suite[i].run(sh)
		//hin:allow determinism -- reporting-only, same as the time.Now above
		elapsed := time.Since(start)
		sp.End()
		// One histogram per experiment id; under concurrency the slots
		// overlap, so these record per-slot wall time, not suite time.
		p.Metrics.Histogram("experiments_run_ns", "id", suite[i].id).
			Observe(elapsed.Nanoseconds())
		p.Log.Debug("experiments: slot done",
			"id", suite[i].id, "elapsed", elapsed)
		results[i] = slotResult{tbl: tbl, err: err, elapsed: elapsed}
		close(done[i])
	}
	// Workers take the slots that compute, in suite order. A render-only
	// slot runs below when the stream reaches it, by which time the
	// earlier slot whose sweep it renders is done; a worker that took it
	// would idle on that sweep while computing slots queued.
	var compute []int
	for i, e := range suite {
		if !renderOnly(e.id) {
			compute = append(compute, i)
		}
	}
	go par.Run(p.Workers, len(compute), func(_, k int) { runSlot(compute[k]) })

	defer root.End()
	var out []*Table
	timings := make([]ExperimentTiming, 0, len(suite))
	var firstErr error
	for i, e := range suite {
		if renderOnly(e.id) {
			runSlot(i)
		}
		<-done[i]
		r := results[i]
		timings = append(timings, ExperimentTiming{ID: e.id, Elapsed: r.elapsed})
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("experiments: %s: %w", e.id, r.err)
			}
			continue
		}
		if firstErr != nil {
			continue
		}
		out = append(out, r.tbl)
		if sink != nil {
			fmt.Fprintf(sink, "%s\n\n", r.tbl) //hin:allow errdrop -- progress narration: a sink write failure must not abort the run
		}
	}
	if firstErr != nil {
		return nil, timings, w.Stats(), firstErr
	}
	return out, timings, w.Stats(), nil
}
