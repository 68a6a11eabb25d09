package experiments

import (
	"runtime"
	"sync"
	"testing"

	"github.com/hinpriv/dehin/internal/dehin"
)

// TestStatsRacingCacheFills hammers Workbench.Stats from a pool of readers
// while other goroutines fill the artifact caches (targets, attacks) and
// count uncached CGA completions concurrently. Under -race this proves
// the Stats path is data-race free (the pre-obs implementation read six
// counters non-atomically); the monotonicity and exact-total assertions
// prove the snapshot view is coherent, not just race-free: per-reader
// snapshots never run backwards, and once the fills quiesce the counters
// add up to exactly the accesses performed.
func TestStatsRacingCacheFills(t *testing.T) {
	p := QuickParams()
	p.AuxUsers = 2000
	p.TargetSize = 100
	p.Densities = []float64{0.005, 0.01}
	w, err := NewWorkbench(p)
	if err != nil {
		t.Fatal(err)
	}
	nc := len(p.Densities) * p.SamplesPerDensity

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < runtime.GOMAXPROCS(0)+1; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prev CacheStats
			for {
				s := w.Stats()
				if s.TargetHits < prev.TargetHits || s.TargetMisses < prev.TargetMisses ||
					s.CGAHits < prev.CGAHits || s.CGAMisses < prev.CGAMisses ||
					s.AttackHits < prev.AttackHits || s.AttackMisses < prev.AttackMisses {
					t.Errorf("Stats ran backwards: %+v -> %+v", prev, s)
					return
				}
				prev = s
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	const fillers = 8
	var fills sync.WaitGroup
	for i := 0; i < fillers; i++ {
		fills.Add(1)
		go func(i int) {
			defer fills.Done()
			for di := range p.Densities {
				if _, err := w.Targets(di); err != nil {
					t.Error(err)
				}
				if _, err := w.CompletedTargets(di, i%2 == 0); err != nil {
					t.Error(err)
				}
			}
			if _, err := w.Attack(dehin.Config{MaxDistance: 1 + i%2, UseIndex: true}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	fills.Wait()
	close(stop)
	readers.Wait()

	// Exact accounting once quiescent. Targets: nc warm-up misses, then
	// every Targets call hits each release of its density (nc per
	// filler), and every completion re-reads its base release (one hit
	// each). CGA: nothing is cached, so every filler completes every
	// community afresh - one miss per completion, no hits. Attacks: two
	// distinct configurations.
	s := w.Stats()
	completions := int64(fillers * nc)
	wantTargetHits := int64(fillers*nc) + completions
	check := func(name string, got, want int64) {
		if got != want {
			t.Errorf("%s = %d, want %d (stats %+v)", name, got, want, s)
		}
	}
	check("TargetMisses", s.TargetMisses, int64(nc))
	check("TargetHits", s.TargetHits, wantTargetHits)
	check("CGAMisses", s.CGAMisses, completions)
	check("CGAHits", s.CGAHits, 0)
	check("AttackMisses", s.AttackMisses, 2)
	check("AttackHits", s.AttackHits, int64(fillers)-2)
}
