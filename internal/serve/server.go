// Package serve implements hinriskd's query layer: an HTTP/JSON surface
// over the risk and attack libraries with lock-free reads and atomic
// snapshot reloads.
//
// The core object is an immutable snapshot (graph + precomputed signature
// classes + prepared attack) swapped RCU-style through an atomic.Pointer.
// Readers never take a lock: a request acquires the current snapshot with
// an atomic refcount handshake, answers from precomputed arrays (or the
// attack's pooled scratch, which is per-snapshot and therefore per-epoch),
// and releases. A reload builds the next snapshot off to the side, swaps
// the pointer, and the retired epoch is closed by whichever holder drains
// the last reference — in-flight requests finish against the epoch they
// started on, and the mmap behind a retired CSR snapshot is unmapped only
// after its last cursor is gone (defense-in-depth: the CSR file's own pin
// count turns a premature close into an error, not a fault).
//
// Every response carries the epoch it was answered from, which is what
// lets the reload soak test assert "zero stale reads" from the outside.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/obs/trace"
)

// Config carries the server's query semantics and operational limits.
// The zero value is not useful — EntityAttrs and Profile must describe
// the schema being served — but every limit has a sensible default.
type Config struct {
	// MaxDistance bounds the distance parameter of /v1/risk and /v1/topk;
	// signature classes for every distance in [0, MaxDistance] are
	// precomputed at snapshot build time.
	MaxDistance int
	// LinkTypes are the utilized link types for both the risk sweep and
	// the attack; empty means all schema link types.
	LinkTypes []hin.LinkTypeID
	// EntityAttrs are the scalar attribute indices feeding the
	// distance-0 signature (risk.SignatureConfig.EntityAttrs).
	EntityAttrs []int
	// Profile declares how profile attributes match for /v1/dehin and
	// powers the attack's candidate index.
	Profile dehin.ProfileSpec
	// AttackDistance is the neighborhood depth of /v1/dehin matching
	// (dehin.Config.MaxDistance). Defaults to 1.
	AttackDistance int

	// MaxTopK caps /v1/topk's k parameter (default 1000).
	MaxTopK int
	// MaxSnippetEntities and MaxSnippetEdges bound the auxiliary snippet
	// a /v1/dehin request may post (defaults 256 and 1024).
	MaxSnippetEntities int
	MaxSnippetEdges    int
	// MaxCandidates caps the candidate list returned by /v1/dehin; the
	// response notes truncation (default 128).
	MaxCandidates int
	// MaxAttackInFlight bounds concurrently executing /v1/dehin attacks
	// (default GOMAXPROCS); MaxAttackQueue bounds requests waiting for a
	// slot before the server answers 429 (default 64).
	MaxAttackInFlight int
	MaxAttackQueue    int

	// Metrics and Log attach observability; both follow the obs
	// nil-disables contract.
	Metrics *obs.Registry
	Log     *obs.Logger

	// Flight, when non-nil, attaches the tail-based request flight
	// recorder: every request records a span tree through admission
	// control and into the attack, and requests slower than the
	// recorder's threshold (or ending non-2xx) are retained for
	// /debug/requests. Nil — the default — costs one predictable branch
	// per request, like the rest of the obs surface.
	Flight *trace.Flight
}

// withDefaults resolves zero limits to their documented defaults.
func (c Config) withDefaults() Config {
	if c.AttackDistance == 0 {
		c.AttackDistance = 1
	}
	if c.MaxTopK == 0 {
		c.MaxTopK = 1000
	}
	if c.MaxSnippetEntities == 0 {
		c.MaxSnippetEntities = 256
	}
	if c.MaxSnippetEdges == 0 {
		c.MaxSnippetEdges = 1024
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 128
	}
	if c.MaxAttackInFlight == 0 {
		c.MaxAttackInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxAttackQueue == 0 {
		c.MaxAttackQueue = 64
	}
	return c
}

// serverMetrics is the server's resolved metric handles (nil registry →
// nil handles → one-branch no-ops, per the obs contract).
type serverMetrics struct {
	epoch       *obs.Gauge
	reloads     *obs.Counter
	reloadErrs  *obs.Counter
	retired     *obs.Counter
	closeErrors *obs.Counter
	inflight    *obs.Gauge
	queueDepth  *obs.Gauge
	rejected    *obs.Counter
	snapAge     *obs.Gauge
	flightCap   *obs.Counter
	// build times each successful Load or LoadBackend, open through
	// install.
	build *obs.Histogram
}

// Server serves risk and attack queries over the current snapshot.
// Reads are lock-free; reloads serialize on a mutex that readers never
// touch. Safe for concurrent use.
type Server struct {
	cfg    Config
	log    *obs.Logger
	met    serverMetrics
	flight *trace.Flight

	cur    atomic.Pointer[snapshot]
	epoch  atomic.Uint64 // last assigned epoch number
	live   atomic.Int64  // snapshots not yet fully drained+closed
	closed atomic.Bool
	// drained is closed by the unref that drains the last live snapshot
	// once Close has begun; Close blocks on it.
	drained chan struct{}

	reloadMu sync.Mutex // serializes Load/LoadBackend/Reload/Close

	// attackSlots is the admission semaphore for /v1/dehin; queued is
	// the number of requests waiting for a slot (mirrored by the
	// queueDepth gauge, which external scrapes read).
	attackSlots chan struct{}
	queued      atomic.Int64
}

// New builds a Server with no snapshot loaded; requests answer 503 until
// the first Load or LoadBackend.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		log:         cfg.Log,
		flight:      cfg.Flight,
		drained:     make(chan struct{}),
		attackSlots: make(chan struct{}, cfg.MaxAttackInFlight),
	}
	if m := cfg.Metrics; m != nil {
		s.met = serverMetrics{
			epoch:       m.Gauge("serve_epoch"),
			reloads:     m.Counter("serve_reloads_total"),
			reloadErrs:  m.Counter("serve_reload_errors_total"),
			retired:     m.Counter("serve_snapshots_retired_total"),
			closeErrors: m.Counter("serve_snapshot_close_errors_total"),
			inflight:    m.Gauge("serve_attack_inflight"),
			queueDepth:  m.Gauge("serve_attack_queue_depth"),
			rejected:    m.Counter("serve_attack_rejected_total"),
			snapAge:     m.Gauge("serve_snapshot_age_s"),
			flightCap:   m.Counter("serve_flight_captured_total"),
			build:       m.Histogram("serve_snapshot_build_ns"),
		}
	}
	return s
}

// errNoSnapshot is what acquire reports before the first load and after
// Close; handlers map it to 503.
var errNoSnapshot = errors.New("serve: no snapshot loaded")

// acquire takes a reference on the current snapshot and pins its backing
// file. The load→ref→recheck loop is the classic refcount handshake: ref
// never raises a count from zero, so a snapshot that drained while we
// were loading it is skipped rather than resurrected, and a successful
// recheck proves the pointer still held this snapshot after our
// increment. On recheck failure the speculative reference is dropped
// (possibly closing a snapshot retired mid-handshake) and the loop
// retries on the new value.
func (s *Server) acquire() (*snapshot, error) {
	for {
		sn := s.cur.Load()
		if sn == nil {
			return nil, errNoSnapshot
		}
		if !sn.ref() {
			continue
		}
		if s.cur.Load() != sn {
			sn.unref(s)
			continue
		}
		if sn.file != nil {
			// Cannot fail while we hold a reference (the file closes
			// only when refs drain); checked anyway so a refcount bug
			// degrades to a 503 instead of a fault.
			if err := sn.file.Pin(); err != nil {
				sn.unref(s)
				return nil, fmt.Errorf("serve: pin epoch %d: %w", sn.epoch, err)
			}
		}
		return sn, nil
	}
}

// release undoes acquire: unpin first, so the file's pin count is zero by
// the time the final unref closes it.
func (s *Server) release(sn *snapshot) {
	if sn.file != nil {
		sn.file.Unpin()
	}
	sn.unref(s)
}

// install publishes a freshly built snapshot and retires the previous one
// by dropping the pointer reference it held.
func (s *Server) install(sn *snapshot) {
	s.live.Add(1)
	s.met.epoch.Set(int64(sn.epoch))
	if old := s.cur.Swap(sn); old != nil {
		old.unref(s)
	}
}

// Load opens an HINCSR01 file and makes it the served snapshot. The build
// happens before the swap, so readers keep answering from the old epoch
// for the whole (checksum + sweep + index) build, then cut over atomically.
func (s *Server) Load(path string) error {
	if s == nil {
		return errors.New("serve: Load on nil server")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.closed.Load() {
		return errors.New("serve: server closed")
	}
	epoch := s.epoch.Add(1)
	build := s.met.build.Time()
	cf, err := hin.OpenCSRFile(path)
	if err != nil {
		s.met.reloadErrs.Inc()
		return fmt.Errorf("serve: open %s: %w", path, err)
	}
	sn, err := newSnapshot(epoch, path, cf.Graph(), cf, s.cfg)
	if err != nil {
		cf.Close() //hin:allow errdrop -- reload failure path: the snapshot error is the one worth surfacing
		s.met.reloadErrs.Inc()
		return err
	}
	s.install(sn)
	build.Stop()
	s.met.reloads.Inc()
	s.log.Info("serve: snapshot loaded", "epoch", epoch, "source", path,
		"users", sn.g.NumEntities(), "edges", sn.g.NumEdgesTotal())
	return nil
}

// LoadBackend makes an in-memory graph the served snapshot (tests and
// embedded use; no file to close when the epoch retires).
func (s *Server) LoadBackend(g hin.GraphBackend) error {
	if s == nil {
		return errors.New("serve: LoadBackend on nil server")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.closed.Load() {
		return errors.New("serve: server closed")
	}
	epoch := s.epoch.Add(1)
	build := s.met.build.Time()
	sn, err := newSnapshot(epoch, "(memory)", g, nil, s.cfg)
	if err != nil {
		s.met.reloadErrs.Inc()
		return err
	}
	s.install(sn)
	build.Stop()
	s.met.reloads.Inc()
	return nil
}

// Reload re-loads the served file: the given path, or the current
// snapshot's source when path is empty. In-memory snapshots have no
// source to re-open, so an empty-path reload over one is an error.
func (s *Server) Reload(path string) error {
	if s == nil {
		return errors.New("serve: Reload on nil server")
	}
	if path == "" {
		sn := s.cur.Load()
		if sn == nil || sn.file == nil {
			return errors.New("serve: no file-backed snapshot to reload")
		}
		path = sn.source
	}
	return s.Load(path)
}

// Epoch returns the epoch of the current snapshot (0 before the first
// load).
func (s *Server) Epoch() uint64 {
	if s == nil {
		return 0
	}
	sn := s.cur.Load()
	if sn == nil {
		return 0
	}
	return sn.epoch
}

// closeDrainTimeout bounds how long Close waits for in-flight requests to
// drain before reporting the leak instead of hanging.
const closeDrainTimeout = 5 * time.Second

// Close retires the current snapshot and waits for every epoch to drain
// and close. New requests answer 503 immediately; requests already in
// flight finish against their acquired snapshot.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.closed.Swap(true) {
		return nil
	}
	if old := s.cur.Swap(nil); old != nil {
		old.unref(s)
	}
	// With no snapshot current, live only falls; if it is not already
	// zero, the unref that takes it there closes drained.
	if s.live.Load() == 0 {
		return nil
	}
	timeout := time.NewTimer(closeDrainTimeout)
	defer timeout.Stop()
	select {
	case <-s.drained:
		return nil
	case <-timeout.C:
		return fmt.Errorf("serve: %d snapshot(s) still referenced after %v", s.live.Load(), closeDrainTimeout)
	}
}

// Handler returns the server's full HTTP surface: the obs operational mux
// (/metrics, /debug/...) with the /v1 API mounted on top.
func (s *Server) Handler() http.Handler {
	if s == nil {
		return http.NotFoundHandler()
	}
	mux := obs.NewMux(s.cfg.Metrics)
	s.Register(mux)
	return mux
}
