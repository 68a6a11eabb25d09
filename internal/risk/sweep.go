package risk

import (
	"fmt"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/par"
)

// sweepShard is the fixed entity-shard width of the parallel refinement.
// Shard boundaries depend only on the entity count, never on the worker
// count, and every shard writes only its own slice of the signature
// array: the sweep is byte-identical for any Workers/GOMAXPROCS value.
const sweepShard = 4096

// pair is one (strength, neighbor signature) element of the sorted
// multiset feeding a signature hash.
type pair struct {
	w int32
	s uint64
}

// sweepScratch is one worker's private refinement state, reused across
// every shard (and round) that worker executes: the sort buffer for
// neighbor pairs and the adjacency decode cursor. High-water-mark memory;
// the per-entity steady state allocates nothing.
type sweepScratch struct {
	pairs   []pair
	edgebuf hin.EdgeBuf
}

// sweep runs the full refinement and returns the final signatures. If
// observe is non-nil it is called serially after every completed round
// with (distance, signatures-at-that-distance); the slice is reused by
// later rounds, so observers must copy anything they keep. Round-d
// signatures do not depend on MaxDistance, so observing round d is
// bit-identical to a standalone MaxDistance=d run — that equivalence is
// what lets one sweep serve every distance of Table 1's grid.
func sweep(g hin.GraphBackend, cfg SignatureConfig, observe func(d int, sigs []uint64)) ([]uint64, error) {
	if err := validateSignatureConfig(g, cfg); err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("risk_sweeps_total").Inc()
		cfg.Metrics.Counter("risk_sweep_entities_total").Add(int64(g.NumEntities()))
		cfg.Metrics.Counter("risk_sweep_rounds_total").Add(int64(cfg.MaxDistance))
		t := cfg.Metrics.Histogram("risk_sweep_ns").Time()
		defer t.Stop()
	}
	root := cfg.Trace.Start("risk.sweep")
	root.Attr("entities", int64(g.NumEntities()))
	root.Attr("max_distance", int64(cfg.MaxDistance))
	defer root.End()

	n := g.NumEntities()
	sig := make([]uint64, n)
	attrs := cfg.EntityAttrs
	st := root.Child("round0")
	par.Sweep(cfg.Workers, n, sweepShard, func(w, lo, hi int) {
		initShard(g, attrs, sig, lo, hi)
	})
	st.End()
	if observe != nil {
		observe(0, sig)
	}
	if cfg.MaxDistance == 0 || n == 0 {
		return sig, nil
	}

	next := make([]uint64, n)
	scratch := make([]sweepScratch, par.Workers(cfg.Workers, par.Shards(n, sweepShard)))
	lanes := par.Lanes(cfg.Trace, cfg.Workers, par.Shards(n, sweepShard))
	lts := g.Schema().LinkTypesOrAll(cfg.LinkTypes)
	for d := 1; d <= cfg.MaxDistance; d++ {
		round := root.Child("round")
		round.Attr("distance", int64(d))
		par.Sweep(cfg.Workers, n, sweepShard, func(w, lo, hi int) {
			var sp trace.Span
			if lanes != nil {
				sp = round.ChildOn(lanes[w], "shard")
				sp.Attr("lo", int64(lo))
			}
			refineShard(g, lts, sig, next, lo, hi, &scratch[w])
			if sp.Active() {
				sp.End()
			}
		})
		round.End()
		sig, next = next, sig
		if observe != nil {
			observe(d, sig)
		}
	}
	return sig, nil
}

// initShard computes the distance-0 signature (the hash of the selected
// attributes) for entities [lo, hi). Attribute indices were validated
// against the schema upfront, so the loop carries no range checks.
//
//hin:hot
func initShard(g hin.GraphBackend, attrs []int, sig []uint64, lo, hi int) {
	for v := lo; v < hi; v++ {
		h := newHash()
		for _, ai := range attrs {
			h = hashInt64(h, g.Attr(hin.EntityID(v), ai))
		}
		sig[v] = h
	}
}

// refineShard advances entities [lo, hi) one refinement round: for each
// entity, hash its previous signature and, per utilized link type, the
// sorted multiset of (strength, previous neighbor signature) pairs. Reads
// the full sig array (neighbors cross shards), writes only next[lo:hi].
//
//hin:hot
func refineShard(g hin.GraphBackend, lts []hin.LinkTypeID, sig, next []uint64, lo, hi int, sc *sweepScratch) {
	for v := lo; v < hi; v++ {
		h := hashUint64(newHash(), sig[v])
		for _, lt := range lts {
			tos, ws := g.OutEdgesBuf(&sc.edgebuf, lt, hin.EntityID(v))
			ps := sc.pairs[:0]
			for i, to := range tos {
				ps = append(ps, pair{w: ws[i], s: sig[to]})
			}
			sc.pairs = ps
			sortPairs(ps)
			h = hashUint64(h, uint64(lt)+0x9d39)
			for _, p := range ps {
				h = hashInt64(h, int64(p.w))
				h = hashUint64(h, p.s)
			}
		}
		next[v] = h
	}
}

// pairLess orders pairs by (strength, signature) ascending — the total
// order that makes the hashed neighbor multiset insertion-order
// invariant. Equal pairs are fully identical, so sort stability is moot.
//
//hin:hot
func pairLess(a, b pair) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	return a.s < b.s
}

// sortPairsCut is the row length below which insertion sort wins; typed
// adjacency rows are short on average, so this is the common path.
const sortPairsCut = 32

// sortPairs sorts in place without the closure and interface-boxing
// allocations of sort.Slice: insertion sort for short rows, heapsort
// (alloc-free, O(n log n) worst case) for the heavy-hub tail.
//
//hin:hot
func sortPairs(ps []pair) {
	n := len(ps)
	if n < 2 {
		return
	}
	if n <= sortPairsCut {
		for i := 1; i < n; i++ {
			p := ps[i]
			j := i - 1
			for j >= 0 && pairLess(p, ps[j]) {
				ps[j+1] = ps[j]
				j--
			}
			ps[j+1] = p
		}
		return
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDownPairs(ps, i, n)
	}
	for i := n - 1; i > 0; i-- {
		ps[0], ps[i] = ps[i], ps[0]
		siftDownPairs(ps, 0, i)
	}
}

// siftDownPairs restores the max-heap property of ps[:hi] below root.
//
//hin:hot
func siftDownPairs(ps []pair, root, hi int) {
	for {
		child := 2*root + 1
		if child >= hi {
			return
		}
		if child+1 < hi && pairLess(ps[child], ps[child+1]) {
			child++
		}
		if !pairLess(ps[root], ps[child]) {
			return
		}
		ps[root], ps[child] = ps[child], ps[root]
		root = child
	}
}

// SweepResult is the combined outcome of one refinement sweep: the final
// signatures plus, for every distance d in [0, MaxDistance], the network
// cardinality C and the dataset risk R = C/N (Theorem 1). One sweep
// replaces the MaxDistance+1 independent Signatures calls that grids like
// Table 1 (15 link-type subsets × distances) used to spend recomputing
// every lower distance from scratch.
type SweepResult struct {
	// Sigs holds the signature of every entity at distance MaxDistance.
	Sigs []uint64
	// Cardinality[d] is C(T*_G) at distance d.
	Cardinality []int
	// Risk[d] is the dataset risk at distance d, computed exactly as
	// DatasetRisk would (the mean of per-tuple 1/k), so values are
	// bit-identical to separate NetworkRisk calls.
	Risk []float64
}

// NetworkSweep computes risk, cardinality, and signatures for every
// distance 0..MaxDistance from a single refinement sweep.
func NetworkSweep(g hin.GraphBackend, cfg SignatureConfig) (*SweepResult, error) {
	if cfg.MaxDistance < 0 {
		return nil, fmt.Errorf("risk: negative MaxDistance")
	}
	res := &SweepResult{
		Cardinality: make([]int, cfg.MaxDistance+1),
		Risk:        make([]float64, cfg.MaxDistance+1),
	}
	sigs, err := sweep(g, cfg, func(d int, sigs []uint64) {
		counts := make(map[uint64]int, len(sigs))
		for _, s := range sigs {
			counts[s]++
		}
		res.Cardinality[d] = len(counts)
		res.Risk[d] = riskFromCounts(sigs, counts)
	})
	if err != nil {
		return nil, err
	}
	res.Sigs = sigs
	return res, nil
}

// SignatureGrid computes the full signature matrix of one sweep: row d
// holds every entity's signature at distance d, for d in [0, MaxDistance].
// Each row is bit-identical to a standalone Signatures call at that
// distance (round-d signatures do not depend on MaxDistance), so a caller
// serving per-distance risk queries — the hinriskd snapshot layer — pins
// the same answers as MaxDistance+1 separate library calls while paying
// for one sweep.
func SignatureGrid(g hin.GraphBackend, cfg SignatureConfig) ([][]uint64, error) {
	if cfg.MaxDistance < 0 {
		return nil, fmt.Errorf("risk: negative MaxDistance")
	}
	grid := make([][]uint64, cfg.MaxDistance+1)
	final, err := sweep(g, cfg, func(d int, sigs []uint64) {
		if d < cfg.MaxDistance {
			grid[d] = append([]uint64(nil), sigs...)
		}
	})
	if err != nil {
		return nil, err
	}
	grid[cfg.MaxDistance] = final
	return grid, nil
}

// riskFromCounts is DatasetRisk with the class-size map precomputed: the
// mean over tuples of 1/k(t), summed in entity order so the float result
// is bit-identical to DatasetRisk(sigs, nil).
func riskFromCounts(sigs []uint64, counts map[uint64]int) float64 {
	if len(sigs) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range sigs {
		sum += 1 / float64(counts[s])
	}
	return sum / float64(len(sigs))
}
