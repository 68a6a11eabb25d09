package baseline

import (
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// propagationFixture samples a dense community as target (identity-mapped
// into the dataset) and returns the dataset's undirected adjacency and
// seeds from the ground truth.
func propagationFixture(t *testing.T, seedCount int) (tgt *tqq.Target, aux [][]hin.EntityID, seeds map[hin.EntityID]hin.EntityID) {
	t.Helper()
	cfg := tqq.DefaultConfig(1200, 19)
	cfg.Communities = []tqq.CommunitySpec{{Size: 200, Density: 0.02}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err = tqq.CommunityTarget(d, 0, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	seeds = make(map[hin.EntityID]hin.EntityID)
	rng := randx.New(100)
	for _, i := range rng.SampleWithoutReplacement(tgt.Graph.NumEntities(), seedCount) {
		seeds[hin.EntityID(i)] = tgt.Orig[i]
	}
	return tgt, UndirectedAdj(d.Graph), seeds
}

func TestPropagationWithSeeds(t *testing.T) {
	tgt, aux, seeds := propagationFixture(t, 20)
	res, err := Propagation(tgt.Graph, aux, PropagationConfig{Seeds: seeds, Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	precision, coverage := Score(res, tgt.Orig, seeds)
	if coverage == 0 {
		t.Fatal("propagation mapped nothing beyond seeds")
	}
	if precision < 0.5 {
		t.Fatalf("propagation precision = %g on a dense community", precision)
	}
	t.Logf("propagation: precision=%.2f coverage=%.2f rounds=%d", precision, coverage, res.Rounds)
}

func TestPropagationNoSeedsMapsNothing(t *testing.T) {
	tgt, aux, _ := propagationFixture(t, 0)
	res, err := Propagation(tgt.Graph, aux, PropagationConfig{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for tv, av := range res.Mapping {
		if av != hin.NoEntity {
			t.Fatalf("mapped %d without any seed", tv)
		}
	}
}

func TestPropagationMappingInjective(t *testing.T) {
	tgt, aux, seeds := propagationFixture(t, 15)
	res, err := Propagation(tgt.Graph, aux, PropagationConfig{Seeds: seeds, Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[hin.EntityID]bool)
	for _, av := range res.Mapping {
		if av == hin.NoEntity {
			continue
		}
		if seen[av] {
			t.Fatalf("auxiliary entity %d mapped twice", av)
		}
		seen[av] = true
	}
}

func TestPropagationErrors(t *testing.T) {
	tgt, aux, _ := propagationFixture(t, 0)
	if _, err := Propagation(tgt.Graph, aux, PropagationConfig{Theta: -1}); err == nil {
		t.Fatal("negative theta accepted")
	}
	bad := map[hin.EntityID]hin.EntityID{9999: 0}
	if _, err := Propagation(tgt.Graph, aux, PropagationConfig{Seeds: bad, Theta: 0.5}); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
}

func TestScoreIgnoresSeeds(t *testing.T) {
	truth := []hin.EntityID{10, 11, 12}
	seeds := map[hin.EntityID]hin.EntityID{0: 10}
	res := &PropagationResult{Mapping: []hin.EntityID{10, 11, hin.NoEntity}}
	precision, coverage := Score(res, truth, seeds)
	if precision != 1 {
		t.Fatalf("precision = %g", precision)
	}
	if coverage != 0.5 {
		t.Fatalf("coverage = %g", coverage)
	}
}
