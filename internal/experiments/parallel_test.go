package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/hinpriv/dehin/internal/dehin"
)

// parTestParams is small enough to run the full suite several times in a
// test, with two densities and two samples so caches see real sharing.
func parTestParams() Params {
	return Params{
		Seed:              3,
		AuxUsers:          2500,
		TargetSize:        150,
		SamplesPerDensity: 1,
		Densities:         []float64{0.004, 0.01},
		Distances:         []int{0, 1, 2},
	}
}

// tablesHash fingerprints a full suite run by hashing every rendered
// table in order - the "byte-identical output" of the acceptance
// criteria.
func tablesHash(tables []*Table) string {
	h := sha256.New()
	for _, t := range tables {
		h.Write([]byte(t.String()))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunAllDeterministicAcrossWorkers is the suite-level determinism
// guarantee: RunAll renders byte-identical tables whether the pipeline's
// own pools are serial (Workers=1), wide (Workers=8), or GOMAXPROCS-bound
// at either extreme.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		p := parTestParams()
		p.Workers = workers
		tables, err := RunAll(p)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if len(tables) != len(suite) {
			t.Fatalf("Workers=%d: got %d tables, want %d", workers, len(tables), len(suite))
		}
		return tablesHash(tables)
	}

	serial := run(1)
	if wide := run(8); wide != serial {
		t.Fatal("Workers=8 tables differ from serial")
	}
	prev := runtime.GOMAXPROCS(1)
	atOne := run(0)
	runtime.GOMAXPROCS(runtime.NumCPU())
	atAll := run(0)
	runtime.GOMAXPROCS(prev)
	if atOne != serial {
		t.Fatal("GOMAXPROCS=1 tables differ from serial")
	}
	if atAll != serial {
		t.Fatal("GOMAXPROCS=NumCPU tables differ from serial")
	}
}

// TestWorkbenchCacheConcurrency hammers the artifact cache from many
// goroutines (run under -race via the verify target). Each release and
// attack must be computed exactly once and every caller must observe the
// same shared instance. CGA completions are not cached: every
// CompletedTargets call completes afresh, and every call returns equal
// graphs.
func TestWorkbenchCacheConcurrency(t *testing.T) {
	p := parTestParams()
	w, err := NewWorkbench(p)
	if err != nil {
		t.Fatal(err)
	}
	warm := w.Stats()
	nComms := len(p.Densities) * p.SamplesPerDensity
	if int(warm.TargetMisses) != nComms {
		t.Fatalf("warm-up released %d targets, want %d", warm.TargetMisses, nComms)
	}

	cfgs := []dehin.Config{
		{MaxDistance: 0},
		{MaxDistance: 1},
		{MaxDistance: 2, RemoveMajorityStrength: true, FallbackProfileOnly: true},
	}
	const goroutines = 16
	baseTargets := make([][]*ReleasedTarget, len(p.Densities))
	baseAttacks := make([]*dehin.Attack, len(cfgs))
	// baseCompleted[vw][di]: one completion per weight mode and density.
	var baseCompleted [2][][]*ReleasedTarget
	for di := range baseTargets {
		if baseTargets[di], err = w.Targets(di); err != nil {
			t.Fatal(err)
		}
	}
	for vw := range baseCompleted {
		baseCompleted[vw] = make([][]*ReleasedTarget, len(p.Densities))
		for di := range p.Densities {
			if baseCompleted[vw][di], err = w.CompletedTargets(di, vw == 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, cfg := range cfgs {
		if baseAttacks[i], err = w.Attack(cfg); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for di := range p.Densities {
				ts, err := w.Targets(di)
				if err != nil {
					errCh <- err
					return
				}
				for ti := range ts {
					if ts[ti] != baseTargets[di][ti] {
						t.Errorf("goroutine %d: target (%d,%d) not the cached instance", g, di, ti)
					}
				}
				cs, err := w.CompletedTargets(di, g%2 == 1)
				if err != nil {
					errCh <- err
					return
				}
				for ti, ct := range cs {
					base := baseCompleted[g%2][di][ti]
					if ct == base {
						t.Errorf("goroutine %d: completion (%d,%d) is a shared instance", g, di, ti)
					}
					if !reflect.DeepEqual(ct, base) {
						t.Errorf("goroutine %d: completion (%d,%d) differs from an earlier call's", g, di, ti)
					}
				}
			}
			for i, cfg := range cfgs {
				a, err := w.Attack(cfg)
				if err != nil {
					errCh <- err
					return
				}
				if a != baseAttacks[i] {
					t.Errorf("goroutine %d: attack %d not the cached instance", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	s := w.Stats()
	if s.TargetMisses != warm.TargetMisses {
		t.Fatalf("targets re-released under concurrency: %d misses, want %d", s.TargetMisses, warm.TargetMisses)
	}
	// Every call completed every target of its density: two base calls
	// and one per goroutine, per density.
	if want := int64((2 + goroutines) * nComms); s.CGAMisses != want || s.CGAHits != 0 {
		t.Fatalf("CGA completions: %d hit / %d miss, want 0 / %d", s.CGAHits, s.CGAMisses, want)
	}
	if want := int64(len(cfgs)); s.AttackMisses != want {
		t.Fatalf("attacks constructed %d times, want %d", s.AttackMisses, want)
	}
	if s.TargetHits == 0 || s.AttackHits == 0 {
		t.Fatalf("expected target and attack cache hits, got %+v", s)
	}
}

// TestAttackCacheBypassesCustomMatchers: configs carrying func-valued
// matchers are not comparable and must never be conflated by the cache.
func TestAttackCacheBypassesCustomMatchers(t *testing.T) {
	p := parTestParams()
	w, err := NewWorkbench(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dehin.Config{
		MaxDistance: 1,
		EntityMatch: dehin.TQQProfile().ExactMatcher(),
		LinkMatch:   dehin.ExactLinkMatcher,
	}
	a1, err := w.Attack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := w.Attack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("custom-matcher attacks must not be cached")
	}
	if s := w.Stats(); s.AttackMisses != 0 || s.AttackHits != 0 {
		t.Fatalf("custom-matcher attacks should bypass the cache counters, got %+v", s)
	}
}
