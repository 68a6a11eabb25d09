package experiments

import (
	"slices"
	"testing"

	"github.com/hinpriv/dehin/internal/obs"
)

// counterWant is one pinned counter value.
type counterWant struct {
	name string
	want int64
}

// exactCounters are the counts of a QuickParams suite that no schedule
// moves: the workbench builds one release per community, one completion
// per CGA target and one attack per Attack call, and each attack run
// makes the same queries with the same candidates whichever worker takes
// them.
var exactCounters = []counterWant{
	{"workbench_releases_total", 3},
	{"workbench_completions_total", 8},
	{"workbench_attacks_total", 55},
	{"dehin_attack_runs_total", 75},
	{"dehin_attack_queries_total", 19000},
	{"dehin_attack_profile_candidates_total", 123720},
	{"dehin_attack_degree_pruned_total", 17479},
	{"dehin_attack_profile_fallbacks_total", 1750},
}

// runQuickCounted runs the QuickParams suite at the given pool sizes and
// checks the named counters.
func runQuickCounted(t *testing.T, workers, parallelism int, want []counterWant) {
	t.Helper()
	p := QuickParams()
	p.Workers, p.Parallelism = workers, parallelism
	p.Metrics = obs.New()
	if _, err := RunAll(p); err != nil {
		t.Fatal(err)
	}
	snap := p.Metrics.Snapshot()
	for _, c := range want {
		if got := snap.Counter(c.name); got != c.want {
			t.Errorf("Workers=%d Parallelism=%d: %s = %d, want %d", workers, parallelism, c.name, got, c.want)
		}
	}
}

// TestSerialWorkCountersPinned pins the attack's deterministic work
// counters over a serial QuickParams suite. With Workers and Parallelism
// both 1, every query and every Algorithm 2 call happens in one fixed
// order, so the memo and matcher counts are exact too; a change to the
// attack that keeps its answers but feeds its matchers, memo or recursion
// a different call sequence moves one of them. Moving a value is a
// deliberate re-baseline. The memo counters of a parallel Run depend on
// how targets fall to workers (each keeps its own memo), so they are not
// pinned at the default parallelism.
func TestSerialWorkCountersPinned(t *testing.T) {
	runQuickCounted(t, 1, 1, slices.Concat(exactCounters, []counterWant{
		{"dehin_attack_matcher_runs_total", 24531},
		{"dehin_attack_memo_hits_total", 46877},
		{"dehin_attack_memo_misses_total", 100215},
	}))
}

// TestParallelWorkCountersPinned runs the same suite at the default pool
// sizes: the schedule-free counts must equal the serial ones.
func TestParallelWorkCountersPinned(t *testing.T) {
	runQuickCounted(t, 0, 0, exactCounters)
}
