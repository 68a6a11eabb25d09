package experiments

import (
	"strings"
	"testing"

	"github.com/hinpriv/dehin/internal/obs/trace"
)

// TestRunAllTraced is the pipeline-level golden test for the tracing
// layer: a traced quick suite run must export valid Chrome trace-event
// JSON (parseable, monotonic timestamps, matched span nesting — see
// trace.ValidateChromeTrace) covering every instrumented stage, and the
// tracer must not perturb the rendered tables.
func TestRunAllTraced(t *testing.T) {
	plain := parTestParams()
	tables, err := RunAll(plain)
	if err != nil {
		t.Fatal(err)
	}
	want := tablesHash(tables)

	p := parTestParams()
	tr := trace.New(trace.DefaultCapacity)
	p.Trace = tr
	tables, err = RunAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if tablesHash(tables) != want {
		t.Fatal("tracing changed the rendered tables")
	}

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	stats, err := trace.ValidateChromeTrace([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d spans with a default-capacity buffer", tr.Dropped())
	}

	// One span family per instrumented layer: generator, workbench builds,
	// suite scheduler, attack engine.
	for _, name := range []string{
		"tqq.generate", "profiles_shard", "edge_task", "reclog_shard",
		"workbench.warm", "workbench.target_fill", "workbench.attack_fill",
		"experiments.run_all", "dehin.run", "query",
	} {
		if stats.Names[name] == 0 {
			t.Errorf("no %q span in traced suite run (names: %v)", name, stats.Names)
		}
	}
	// One scheduler slot span per experiment, under the suite root.
	if stats.Names["experiments.run_all"] != 1 {
		t.Errorf("experiments.run_all spans = %d, want 1", stats.Names["experiments.run_all"])
	}
	for _, e := range suite {
		if stats.Names[e.id] != 1 {
			t.Errorf("slot span %q count = %d, want 1", e.id, stats.Names[e.id])
		}
	}
}

// TestTracerOffByDefault pins that an untraced workbench run touches no
// tracer state: nil Params.Trace propagates as nil everywhere and the
// suite still runs (this is the default path every benchmark takes).
func TestTracerOffByDefault(t *testing.T) {
	p := parTestParams()
	w, err := NewWorkbench(p)
	if err != nil {
		t.Fatal(err)
	}
	if w.tr != nil {
		t.Fatal("workbench picked up a tracer from nil Params.Trace")
	}
	if _, err := RunOn(w, "table1"); err != nil {
		t.Fatal(err)
	}
}
