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
	// One adjacency decode cursor per worker, reused across every shard
	// and round that worker executes: the per-entity steady state
	// allocates nothing.
	bufs := make([]hin.EdgeBuf, par.Workers(cfg.Workers, par.Shards(n, sweepShard)))
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
			refineShard(g, lts, sig, next, lo, hi, &bufs[w])
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
// type's tag, the row's degree and the wrapping sum of mixPair over the
// row's (strength, previous neighbor signature) pairs. Addition commutes,
// so the sum depends on the row's multiset of pairs and not on its order:
// no row is sorted. The degree keeps an empty row apart from a non-empty
// one whose mixes happen to sum to zero. Reads the full sig array
// (neighbors cross shards), writes only next[lo:hi].
//
//hin:hot
func refineShard(g hin.GraphBackend, lts []hin.LinkTypeID, sig, next []uint64, lo, hi int, buf *hin.EdgeBuf) {
	for v := lo; v < hi; v++ {
		h := hashUint64(newHash(), sig[v])
		for _, lt := range lts {
			tos, ws := g.OutEdgesBuf(buf, lt, hin.EntityID(v))
			ws = ws[:len(tos)]
			var sum uint64
			for i, to := range tos {
				sum += mixPair(ws[i], sig[to])
			}
			h = hashUint64(h, uint64(lt)+0x9d39)
			h = hashUint64(h, uint64(len(tos)))
			h = hashUint64(h, sum)
		}
		next[v] = h
	}
}

// mixPair maps one (strength, neighbor signature) pair of a row to a
// pseudo-random word for refineShard's order-free sum: the strength goes
// in first, by a multiply with the 64-bit golden ratio, then the
// SplitMix64 finalizer spreads every input bit over the whole word.
//
//hin:hot
func mixPair(w int32, s uint64) uint64 {
	x := s + uint64(uint32(w))*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
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
		_, res.Cardinality[d], res.Risk[d] = ClassSizes(sigs)
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

// ClassSizes reads the partition a signature vector induces: sizes[v] is
// k(v), the size of v's equivalence class (Definition 7's per-tuple risk
// is 1/k), classes is the network cardinality C, and risk is the dataset
// risk of Definition 8, the mean of 1/k summed in entity order, so it is
// bit-identical to DatasetRisk(sigs, nil). NetworkSweep and hinriskd's
// snapshot build both call it, so the class sizes and risk the daemon
// serves agree with the library's by construction.
func ClassSizes(sigs []uint64) (sizes []int32, classes int, risk float64) {
	// Count the classes in an open-addressing table of more than 4n/3
	// slots, probed linearly from a Fibonacci hash of the signature. At
	// that load it is smaller and faster than a map, which matters
	// because hinriskd builds one per distance at once. A slot is free
	// while its count is zero.
	n := len(sigs)
	bits := 1
	for 1<<bits < n+n/3+1 {
		bits++
	}
	keys := make([]uint64, 1<<bits)
	counts := make([]int32, 1<<bits)
	mask := uint64(len(keys) - 1)
	sizes = make([]int32, n)
	for v, s := range sigs {
		i := s * 0x9e3779b97f4a7c15 >> (64 - bits)
		for counts[i] != 0 && keys[i] != s {
			i = (i + 1) & mask
		}
		if counts[i] == 0 {
			keys[i] = s
			classes++
		}
		counts[i]++
		sizes[v] = int32(uint32(i)) // v's slot, until every count is in
	}
	sum := 0.0
	for v, i := range sizes {
		k := counts[uint32(i)]
		sizes[v] = k
		sum += 1 / float64(k)
	}
	if n > 0 {
		risk = sum / float64(n)
	}
	return sizes, classes, risk
}
