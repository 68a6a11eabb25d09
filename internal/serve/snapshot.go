package serve

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/risk"
)

// snapshot is one immutable epoch of served state: the graph, the
// precomputed per-distance signature classes that answer /v1/risk and
// /v1/topk in O(1) and O(k), and the prepared DeHIN attack whose scratch
// pool is naturally keyed to this epoch (the pool lives on the Attack,
// the Attack lives here, so a reload can never hand one epoch's scratch
// to another epoch's graph).
//
// Lifetime is reference-counted, RCU style. refs starts at 1 — the
// reference owned by Server.cur while the snapshot is current. Request
// handlers acquire/release around each request; Server.install transfers
// the pointer reference to the incoming snapshot and drops the retired
// one's. The holder that drops the last reference closes the backing CSR
// file, so a retired epoch lives exactly until its in-flight requests
// drain, and the mmap is never unmapped under a live reader.
type snapshot struct {
	epoch  uint64
	source string // file path, or "(memory)" for LoadBackend epochs
	g      hin.GraphBackend
	file   *hin.CSRFile // nil when the graph is not file-backed

	// class[d][v] is the size of v's signature equivalence class at
	// distance d; per-entity risk is 1/class[d][v] (Definition 7).
	class [][]int32
	// order[d] holds every entity id sorted by (class size asc, id asc):
	// the top-k most identifiable users at distance d are order[d][:k].
	order [][]int32
	// risk[d] is the dataset risk at distance d, bit-identical to
	// risk.NetworkSweep's Risk column (same summation order).
	risk []float64

	attack *dehin.Attack
	refs   atomic.Int64

	// loadedAt is when the snapshot finished building; /v1/healthz
	// reports the age and mirrors it into serve_snapshot_age_s.
	loadedAt time.Time
}

// newSnapshot precomputes the served state for one graph. The signature
// grid is one sweep (risk.SignatureGrid), so building a snapshot costs the
// same as a single MaxDistance risk run plus the attack index.
func newSnapshot(epoch uint64, source string, g hin.GraphBackend, file *hin.CSRFile, cfg Config) (*snapshot, error) {
	grid, err := risk.SignatureGrid(g, risk.SignatureConfig{
		MaxDistance: cfg.MaxDistance,
		LinkTypes:   cfg.LinkTypes,
		EntityAttrs: cfg.EntityAttrs,
		Workers:     cfg.Workers,
		Metrics:     cfg.Metrics,
		Trace:       cfg.Trace,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: signature grid: %w", err)
	}
	sn := &snapshot{
		epoch:  epoch,
		source: source,
		g:      g,
		file:   file,
		class:  make([][]int32, len(grid)),
		order:  make([][]int32, len(grid)),
		risk:   make([]float64, len(grid)),
	}
	n := g.NumEntities()
	for d, sigs := range grid {
		counts := make(map[uint64]int32, n)
		for _, s := range sigs {
			counts[s]++
		}
		class := make([]int32, n)
		order := make([]int32, n)
		sum := 0.0
		for v, s := range sigs {
			k := counts[s]
			class[v] = k
			order[v] = int32(v)
			sum += 1 / float64(k)
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if class[a] != class[b] {
				return class[a] < class[b]
			}
			return a < b
		})
		sn.class[d] = class
		sn.order[d] = order
		if n > 0 {
			sn.risk[d] = sum / float64(n)
		}
	}
	attack, err := dehin.NewAttack(g, dehin.Config{
		MaxDistance: cfg.AttackDistance,
		LinkTypes:   cfg.LinkTypes,
		Profile:     cfg.Profile,
		UseIndex:    true,
		Parallelism: cfg.Workers,
		Metrics:     cfg.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: attack: %w", err)
	}
	sn.attack = attack
	sn.loadedAt = time.Now()
	sn.refs.Store(1)
	return sn, nil
}

// unref drops one reference. The holder that observes zero is by
// construction the last: the snapshot is already retired (the current
// snapshot always holds the Server.cur reference, so a live epoch cannot
// drain), every reader has unpinned, and nobody can acquire it again — so
// closing the file here is race-free, and exactly one goroutine does it.
func (sn *snapshot) unref(s *Server) {
	if sn.refs.Add(-1) != 0 {
		return
	}
	s.met.retired.Inc()
	s.live.Add(-1)
	if sn.file != nil {
		if err := sn.file.Close(); err != nil {
			s.met.closeErrors.Inc()
			s.log.Error("serve: closing retired snapshot", "epoch", sn.epoch, "err", err)
		}
	}
}
