package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/par"
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
	// linkTypes is Config.LinkTypes resolved against g's schema: the list
	// both the signature grid and the attack were built with.
	linkTypes []hin.LinkTypeID

	// class[d][v] is the size of v's signature equivalence class at
	// distance d; per-entity risk is 1/class[d][v] (Definition 7).
	class [][]int32
	// order[d] holds every entity id sorted by (class size asc, id asc):
	// the top-k most identifiable users at distance d are order[d][:k].
	order [][]int32
	// risk[d] is the dataset risk at distance d. class[d] and risk[d] come
	// from risk.ClassSizes, as risk.NetworkSweep's columns do, so they
	// agree with the library bit for bit.
	risk []float64

	attack *dehin.Attack
	refs   atomic.Int64

	// loadedAt is when the snapshot finished building; /v1/healthz
	// reports the age and mirrors it into serve_snapshot_age_s.
	loadedAt time.Time
}

// newSnapshot precomputes the served state for one graph. The signature
// grid is one sweep (risk.SignatureGrid), so building a snapshot costs the
// same as a single MaxDistance risk run plus the attack index; the
// per-distance class tables that follow it run one distance per worker.
func newSnapshot(epoch uint64, source string, g hin.GraphBackend, file *hin.CSRFile, cfg Config) (*snapshot, error) {
	lts := g.Schema().LinkTypesOrAll(cfg.LinkTypes)
	grid, err := risk.SignatureGrid(g, risk.SignatureConfig{
		MaxDistance: cfg.MaxDistance,
		LinkTypes:   lts,
		EntityAttrs: cfg.EntityAttrs,
		Metrics:     cfg.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: signature grid: %w", err)
	}
	sn := &snapshot{
		epoch:     epoch,
		source:    source,
		g:         g,
		file:      file,
		linkTypes: lts,
		class:     make([][]int32, len(grid)),
		order:     make([][]int32, len(grid)),
		risk:      make([]float64, len(grid)),
	}
	// One distance per task: each writes only its own row of the three
	// tables.
	par.Run(0, len(grid), func(_, d int) {
		sn.class[d], _, sn.risk[d] = risk.ClassSizes(grid[d])
		sn.order[d] = orderBySize(sn.class[d])
	})
	attack, err := dehin.NewAttack(g, dehin.Config{
		MaxDistance: cfg.AttackDistance,
		LinkTypes:   lts,
		Profile:     cfg.Profile,
		UseIndex:    true,
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

// orderBySize lists every entity id by (class size asc, id asc): a
// counting sort on the size, whose in-order placement keeps ids ascending
// within a size. The count array is sized by the largest class, not by
// the entity count.
func orderBySize(class []int32) []int32 {
	var largest int32
	for _, k := range class {
		largest = max(largest, k)
	}
	next := make([]int32, largest+1)
	for _, k := range class {
		next[k]++
	}
	pos := int32(0)
	for k, c := range next {
		next[k] = pos
		pos += c
	}
	order := make([]int32, len(class))
	for v, k := range class {
		order[next[k]] = int32(v)
		next[k]++
	}
	return order
}

// ref takes one reference unless the count has already drained to zero,
// in which case the snapshot is retired for good and ref reports false.
func (sn *snapshot) ref() bool {
	for {
		n := sn.refs.Load()
		if n == 0 {
			return false
		}
		if sn.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// unref drops one reference. The holder that observes zero is by
// construction the last: the snapshot is already retired (the current
// snapshot always holds the Server.cur reference, so a live epoch cannot
// drain), every reader has unpinned, and ref never raises a drained count
// again — so closing the file here is race-free, and exactly one
// goroutine does it. The unref that drains the last live snapshot after
// Close has begun wakes Close.
func (sn *snapshot) unref(s *Server) {
	if sn.refs.Add(-1) != 0 {
		return
	}
	s.met.retired.Inc()
	if sn.file != nil {
		if err := sn.file.Close(); err != nil {
			s.met.closeErrors.Inc()
			s.log.Error("serve: closing retired snapshot", "epoch", sn.epoch, "err", err)
		}
	}
	if s.live.Add(-1) == 0 && s.closed.Load() {
		close(s.drained)
	}
}
