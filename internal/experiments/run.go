package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/hinpriv/dehin/internal/par"
)

// Runner regenerates one paper artifact (or ablation) on a prepared
// workbench, returning the rendered tables.
type Runner func(*Workbench) ([]*Table, error)

// Registry maps experiment ids (DESIGN.md's per-experiment index) to
// runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1": func(w *Workbench) ([]*Table, error) {
			r, err := RunTable1(w)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Render()}, nil
		},
		"figure7": func(w *Workbench) ([]*Table, error) {
			r, err := RunTable1(w)
			if err != nil {
				return nil, err
			}
			return []*Table{RunFigure7(r).Render()}, nil
		},
		"table2": func(w *Workbench) ([]*Table, error) {
			r, err := RunTable2(w)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Render()}, nil
		},
		"table3": func(w *Workbench) ([]*Table, error) {
			r, err := RunTable3(w)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Render()}, nil
		},
		"figure9": func(w *Workbench) ([]*Table, error) {
			r, err := RunTable3(w)
			if err != nil {
				return nil, err
			}
			return []*Table{RunFigure9(r).Render()}, nil
		},
		"table4": func(w *Workbench) ([]*Table, error) {
			r, err := RunTable4(w)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Render()}, nil
		},
		"figure8": func(w *Workbench) ([]*Table, error) {
			r, err := RunFigure8(w)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Render()}, nil
		},
		"ablation-growth": func(w *Workbench) ([]*Table, error) {
			r, err := RunGrowthAblation(w)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Render()}, nil
		},
		"ablation-baseline": func(w *Workbench) ([]*Table, error) {
			r, err := RunBaselineAblation(w)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Render()}, nil
		},
		"ablation-homog": func(w *Workbench) ([]*Table, error) {
			r, err := RunHomogeneousAblation(w)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Render()}, nil
		},
		"utility": func(w *Workbench) ([]*Table, error) {
			r, err := RunUtility(w)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Render()}, nil
		},
		"ablation-perturb": func(w *Workbench) ([]*Table, error) {
			r, err := RunPerturbAblation(w)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Render()}, nil
		},
		"obscurity": func(w *Workbench) ([]*Table, error) {
			r, err := RunObscurity(w)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Render()}, nil
		},
		"ablation-bottleneck": func(w *Workbench) ([]*Table, error) {
			r, err := RunBottleneck(w)
			if err != nil {
				return nil, err
			}
			return []*Table{r.Render()}, nil
		},
	}
}

// Names lists the registered experiment ids, sorted.
func Names() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for k := range reg {
		out = append(out, k)
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
// sharing its artifact cache with whatever ran before.
func RunOn(w *Workbench, id string) ([]*Table, error) {
	r, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
	}
	return r(w)
}

// cell is a concurrency-safe lazily-computed intermediate shared between
// experiment slots (Table 1 feeds Figure 7, Table 3 feeds Figure 9, the
// CGA sweeps feed Table 4 and Figure 8). Whichever slot asks first
// computes; the rest block on the same result.
type cell[T any] struct {
	once sync.Once
	fn   func() (T, error)
	val  T
	err  error
}

func newCell[T any](fn func() (T, error)) *cell[T] {
	return &cell[T]{fn: fn}
}

func (c *cell[T]) get() (T, error) {
	c.once.Do(func() {
		c.val, c.err = c.fn()
		c.fn = nil
	})
	return c.val, c.err
}

// runAllOrder is the fixed output order of the full suite - the order the
// serial pipeline always printed, kept stable no matter which experiment
// finishes first.
var runAllOrder = []string{
	"table1", "figure7", "table2", "table3", "figure9", "table4", "figure8",
	"ablation-growth", "ablation-baseline", "ablation-homog", "utility",
	"ablation-perturb", "ablation-bottleneck", "obscurity",
}

// ExperimentTiming records one experiment slot's wall time inside RunAll.
// Under concurrency the times overlap; their sum exceeds the suite's
// wall clock.
type ExperimentTiming struct {
	ID      string
	Elapsed time.Duration
}

// RunAll executes every experiment on one shared workbench, computing the
// expensive sweeps once: Table 1 also yields Figure 7, Table 3 yields
// Figure 9, and Table 2 plus the two CGA sweeps yield Table 4 and
// Figure 8.
func RunAll(p Params) ([]*Table, error) {
	out, _, _, err := RunAllTimed(nil, p)
	return out, err
}

// RunAllTo is RunAll streaming each rendered table (with a timing line) to
// sink as soon as its turn in the fixed order comes; pass nil to collect
// silently.
func RunAllTo(sink io.Writer, p Params) ([]*Table, error) {
	out, _, _, err := RunAllTimed(sink, p)
	return out, err
}

// RunAllTimed is RunAllTo returning per-experiment wall times and the
// final artifact-cache statistics alongside the tables.
//
// Independent experiments run concurrently over the shared workbench, at
// most p.Workers at a time (0 = GOMAXPROCS). Shared intermediates are
// computed once in whichever slot needs them first; every other artifact
// comes from the workbench cache. Output is streamed to sink in the fixed
// suite order as a finished slot reaches the front, so the rendered
// tables are byte-identical for every Workers value - concurrency moves
// only the timing lines.
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

	t1 := newCell(func() (*Table1Result, error) { return RunTable1(w) })
	t2 := newCell(func() (*Table2Result, error) { return RunTable2(w) })
	t3 := newCell(func() (*Table3Result, error) { return RunTable3(w) })
	cga := newCell(func() (*Table4Result, error) { return runCGASweep(w, false) })
	vw := newCell(func() (*Table4Result, error) { return runCGASweep(w, true) })

	compute := map[string]func() (*Table, error){
		"table1": func() (*Table, error) {
			r, err := t1.get()
			if err != nil {
				return nil, err
			}
			return r.Render(), nil
		},
		"figure7": func() (*Table, error) {
			r, err := t1.get()
			if err != nil {
				return nil, err
			}
			return RunFigure7(r).Render(), nil
		},
		"table2": func() (*Table, error) {
			r, err := t2.get()
			if err != nil {
				return nil, err
			}
			return r.Render(), nil
		},
		"table3": func() (*Table, error) {
			r, err := t3.get()
			if err != nil {
				return nil, err
			}
			return r.Render(), nil
		},
		"figure9": func() (*Table, error) {
			r, err := t3.get()
			if err != nil {
				return nil, err
			}
			return RunFigure9(r).Render(), nil
		},
		"table4": func() (*Table, error) {
			r, err := cga.get()
			if err != nil {
				return nil, err
			}
			return r.Render(), nil
		},
		"figure8": func() (*Table, error) {
			t2r, err := t2.get()
			if err != nil {
				return nil, err
			}
			cgar, err := cga.get()
			if err != nil {
				return nil, err
			}
			vwr, err := vw.get()
			if err != nil {
				return nil, err
			}
			return figure8From(p, t2r, cgar, vwr).Render(), nil
		},
	}
	for _, id := range []string{"ablation-growth", "ablation-baseline",
		"ablation-homog", "utility", "ablation-perturb",
		"ablation-bottleneck", "obscurity"} {
		runner := Registry()[id]
		compute[id] = func() (*Table, error) {
			ts, err := runner(w)
			if err != nil {
				return nil, err
			}
			return ts[0], nil
		}
	}

	type slotResult struct {
		tbl     *Table
		err     error
		elapsed time.Duration
	}
	results := make([]slotResult, len(runAllOrder))
	done := make([]chan struct{}, len(runAllOrder))
	for i := range done {
		done[i] = make(chan struct{})
	}
	// One span per experiment slot, each on its own lane: the exported
	// timeline shows the actual concurrency schedule - which slots ran
	// together and which serialized behind a shared intermediate.
	suite := p.Trace.Start("experiments.run_all")
	suite.Attr("slots", int64(len(runAllOrder)))
	go par.Run(p.Workers, len(runAllOrder), func(_, i int) {
		sp := suite.Fork(runAllOrder[i])
		//hin:allow determinism -- per-slot wall time feeds the -timing report and histograms only; experiment tables never see it
		start := time.Now()
		tbl, err := compute[runAllOrder[i]]()
		//hin:allow determinism -- reporting-only, same as the time.Now above
		elapsed := time.Since(start)
		sp.End()
		// One histogram per experiment id; under concurrency the slots
		// overlap, so these record per-slot wall time, not suite time.
		p.Metrics.Histogram("experiments_run_ns", "id", runAllOrder[i]).
			Observe(elapsed.Nanoseconds())
		p.Log.Debug("experiments: slot done",
			"id", runAllOrder[i], "elapsed", elapsed)
		results[i] = slotResult{tbl: tbl, err: err, elapsed: elapsed}
		close(done[i])
	})

	defer suite.End()
	var out []*Table
	timings := make([]ExperimentTiming, 0, len(runAllOrder))
	var firstErr error
	for i, id := range runAllOrder {
		<-done[i]
		r := results[i]
		timings = append(timings, ExperimentTiming{ID: id, Elapsed: r.elapsed})
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("experiments: %s: %w", id, r.err)
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
