package experiments

import (
	"testing"

	"github.com/hinpriv/dehin/internal/obs"
)

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
	p := QuickParams()
	p.Workers, p.Parallelism = 1, 1
	p.Metrics = obs.New()
	if _, err := RunAll(p); err != nil {
		t.Fatal(err)
	}
	snap := p.Metrics.Snapshot()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"dehin_attack_runs_total", 75},
		{"dehin_attack_queries_total", 19000},
		{"dehin_attack_profile_candidates_total", 123720},
		{"dehin_attack_degree_pruned_total", 17479},
		{"dehin_attack_profile_fallbacks_total", 1750},
		{"dehin_attack_matcher_runs_total", 24531},
		{"dehin_attack_memo_hits_total", 46877},
		{"dehin_attack_memo_misses_total", 100215},
	} {
		if got := snap.Counter(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}
