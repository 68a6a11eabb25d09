package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"sync"
	"testing"
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

// TestCompletedTargetsConcurrency calls CompletedTargets from many
// goroutines (run under -race via the verify target). Every call
// completes afresh, so no two calls share a graph, and every call returns
// graphs equal to an earlier serial call's.
func TestCompletedTargetsConcurrency(t *testing.T) {
	p := parTestParams()
	w, err := NewWorkbench(p)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	// baseCompleted[vw][di]: one completion per weight mode and density.
	var baseCompleted [2][][]*ReleasedTarget
	for vw := range baseCompleted {
		baseCompleted[vw] = make([][]*ReleasedTarget, len(p.Densities))
		for di := range p.Densities {
			if baseCompleted[vw][di], err = w.CompletedTargets(di, vw == 1); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for di := range p.Densities {
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
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
