// Package trace is the repository's zero-dependency span tracer: the
// timeline companion to the internal/obs metrics registry. Metrics say
// what happened and how often; spans say when and in what order - which
// generator shard straggled, which experiment serialized behind a
// shared sweep, where a long attack Run spends its wall time.
//
// The package follows the same design contract as obs.Registry:
//
//   - Off by default, one branch when off. A nil *Tracer returns zero
//     Span values and every Span method is a no-op on the zero value, so
//     instrumented code runs unconditionally and disables the whole layer
//     by holding a nil tracer.
//   - Never touches a random stream, so traced and untraced runs produce
//     byte-identical datasets and results.
//   - Allocation-free on the recording path: spans live in a fixed
//     pre-allocated buffer, names must be static strings, and attributes
//     are bounded int64 key=value pairs. Only construction (New) and
//     export allocate.
//
// Recording is goroutine-safe and lock-free: a slot is claimed with one
// atomic increment and then owned exclusively by the claiming goroutine
// until End. When the buffer is full new spans are dropped (and counted)
// rather than overwriting live slots, which keeps a traced 500k-user
// generate or 12k-target Run bounded and race-free. Export (Chrome
// trace-event JSON for Perfetto / about://tracing, or a deterministic
// plain-text tree for golden tests) is meant to run after the traced work
// has completed.
package trace

import (
	"sync/atomic"
	"time"
)

// MaxAttrs bounds the per-span attribute count; further Attr calls are
// dropped silently. Six covers every call site in the pipeline while
// keeping span records small and fixed-size.
const MaxAttrs = 6

// attr is one bounded key=value span annotation. Values are int64 only
// (shard indices, edge counts, target ids): formatting happens at export,
// never on the recording path.
type attr struct {
	key string
	val int64
}

// span is one recorded slot. Fields are written only by the goroutine
// that claimed the slot (between Start and End); readers run after the
// traced work has finished.
type span struct {
	id     uint64 // 0 = slot never claimed
	parent uint64 // 0 = root
	track  uint64
	name   string
	start  int64 // ns since Tracer construction
	dur    int64 // ns; -1 while the span is open
	attrs  [MaxAttrs]attr
	nattrs int32
}

// Tracer records named spans into a fixed-capacity buffer. Construct with
// New; the zero value and nil are valid "tracing off" tracers.
type Tracer struct {
	begin   time.Time
	spans   []span
	next    atomic.Uint64 // span ids, 1-based; slot = id-1
	tracks  atomic.Uint64 // track (Perfetto tid) ids, 1-based
	dropped atomic.Int64
}

// Track is a Perfetto thread-track id. Each root span opens its own
// track; concurrent children (one per worker or per shard) fork tracks so
// the exported timeline shows the real schedule as parallel lanes.
type Track uint64

// DefaultCapacity is the span capacity commands use for -trace: large
// enough for a paper-scale generate plus a fully sampled suite, small
// enough (~6 MB) to sit preallocated for a whole run.
const DefaultCapacity = 1 << 16

// New returns a tracer with room for capacity spans (minimum 64;
// non-positive values get DefaultCapacity). Once the buffer fills, new
// spans are dropped and counted - see Dropped.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if capacity < 64 {
		capacity = 64
	}
	return &Tracer{begin: time.Now(), spans: make([]span, capacity)}
}

// Span is a handle to one live (or ended) span. The zero value is a valid
// no-op span: every method costs one predictable branch and does nothing.
type Span struct {
	t  *Tracer
	id uint64
}

// NewTrack allocates a fresh timeline lane. Use with Span.ChildOn to give
// each worker of a parallel stage its own lane, mirroring the actual
// concurrency schedule in the exported trace.
func (t *Tracer) NewTrack() Track {
	if t == nil {
		return 0
	}
	return Track(t.tracks.Add(1))
}

// Start opens a root span on a fresh track. Nil tracer returns the no-op
// zero Span. name must be a static (or otherwise retained) string: the
// tracer stores it by reference and never copies.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return t.open(name, 0, uint64(t.NewTrack()))
}

// StartOn opens a root span on an explicit track (see NewTrack). Use when
// a long-lived component records many independent root spans that should
// share one timeline lane instead of opening a fresh lane each. Same-track
// spans must nest, so the caller must not overlap spans on the track.
func (t *Tracer) StartOn(tr Track, name string) Span {
	if t == nil {
		return Span{}
	}
	return t.open(name, 0, uint64(tr))
}

// Child opens a sub-span on the same track as s. Use for sequential
// stages of one logical unit; same-track spans must nest.
func (s Span) Child(name string) Span {
	if s.t == nil {
		return Span{}
	}
	sp := s.t.slot(s.id)
	if sp == nil {
		return Span{}
	}
	return s.t.open(name, s.id, sp.track)
}

// ChildOn opens a sub-span of s on an explicit track (see NewTrack). Use
// for concurrent children: parent/child links stay intact while each lane
// only holds properly nested spans.
func (s Span) ChildOn(tr Track, name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.open(name, s.id, uint64(tr))
}

// Fork opens a sub-span of s on its own fresh track - shorthand for
// ChildOn(t.NewTrack(), name) for one-off concurrent children.
func (s Span) Fork(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.open(name, s.id, uint64(s.t.NewTrack()))
}

// open claims a slot. Beyond capacity the span is dropped (counted) and
// the zero Span returned, so a burst can never overwrite live history nor
// race a slot owner.
func (t *Tracer) open(name string, parent, track uint64) Span {
	id := t.next.Add(1)
	if id > uint64(len(t.spans)) {
		t.dropped.Add(1)
		return Span{}
	}
	sp := &t.spans[id-1]
	sp.id = id
	sp.parent = parent
	sp.track = track
	sp.name = name
	sp.start = time.Since(t.begin).Nanoseconds()
	sp.dur = -1
	sp.nattrs = 0
	return Span{t: t, id: id}
}

// slot returns the record behind a live handle; nil for the zero handle.
func (t *Tracer) slot(id uint64) *span {
	if id == 0 || id > uint64(len(t.spans)) {
		return nil
	}
	return &t.spans[id-1]
}

// Attr annotates the span with one key=value pair. Beyond MaxAttrs the
// pair is dropped. No-op on the zero Span.
func (s Span) Attr(key string, val int64) {
	if s.t == nil {
		return
	}
	sp := s.t.slot(s.id)
	if sp == nil || sp.nattrs >= MaxAttrs {
		return
	}
	sp.attrs[sp.nattrs] = attr{key: key, val: val}
	sp.nattrs++
}

// End closes the span, recording its duration. No-op on the zero Span;
// ending twice keeps the later duration (harmless, and only reachable
// from a caller bug).
func (s Span) End() {
	if s.t == nil {
		return
	}
	sp := s.t.slot(s.id)
	if sp == nil {
		return
	}
	sp.dur = time.Since(s.t.begin).Nanoseconds() - sp.start
}

// Active reports whether the handle records anywhere - false for the zero
// Span. Call sites use it to skip work that only feeds span attributes.
func (s Span) Active() bool { return s.t != nil }

// Len returns the number of recorded (claimed) spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := t.next.Load()
	if n > uint64(len(t.spans)) {
		n = uint64(len(t.spans))
	}
	return int(n)
}

// Dropped returns how many spans were discarded because the buffer was
// full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Reset discards every recorded span and re-stamps the tracer's time
// origin, making the buffer reusable without reallocation. It is meant
// for pooled per-request tracers (see Flight): the caller must own the
// tracer exclusively — no live Span handles, no concurrent recording —
// because stale slot contents become unreachable only through the reset
// counters, not through clearing. open re-stamps every field of a slot
// it claims, so records from before the Reset can never leak into a
// later snapshot.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.begin = time.Now()
	t.next.Store(0)
	t.tracks.Store(0)
	t.dropped.Store(0)
}

// Cap returns the tracer's span capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}
