package obs

import (
	"math"
	"runtime/metrics"
	"time"
)

// Runtime metric families and the runtime/metrics samples feeding them.
// Values are converted to the registry's native units: bytes and counts
// pass through, seconds become nanoseconds (the unit every histogram in
// the repository already uses).
const (
	runtimeHeapLive   = "/gc/heap/live:bytes"
	runtimeHeapGoal   = "/gc/heap/goal:bytes"
	runtimeGoroutines = "/sched/goroutines:goroutines"
	runtimeGCCycles   = "/gc/cycles/total:gc-cycles"
	runtimeGCPauses   = "/sched/pauses/total/gc:seconds"
	runtimeSchedLat   = "/sched/latencies:seconds"
)

// RuntimeCollector polls runtime/metrics into a Registry: heap live and
// goal gauges, goroutine count, cumulative GC cycles, and the GC pause
// and scheduler latency distributions folded into obs histograms by
// bucket delta. Construct with StartRuntime; a nil collector no-ops
// every method, following the package's nil-disables contract.
//
// Histogram folding: runtime/metrics exposes cumulative
// Float64Histograms with runtime-chosen bucket boundaries. Each poll
// takes the per-bucket count delta since the previous poll and records
// it at the bucket midpoint (in nanoseconds) via ObserveN, so the obs
// power-of-two histogram tracks the live distribution at bucket
// resolution without retaining raw samples. Samples the running
// runtime does not support (KindBad) are skipped, never errors.
type RuntimeCollector struct {
	heapLive   *Gauge
	heapGoal   *Gauge
	goroutines *Gauge
	gcCycles   *Counter
	gcPause    *Histogram
	schedLat   *Histogram

	samples    []metrics.Sample
	prevCycles uint64
	prevPause  []uint64 // previous cumulative bucket counts
	prevSched  []uint64

	stop chan struct{}
	done chan struct{}
}

// StartRuntime resolves the runtime metric families on r and begins
// polling every interval (minimum 100ms, default 1s when non-positive)
// until Stop. A nil registry returns a nil collector — runtime telemetry
// off — at the usual single-branch cost.
func StartRuntime(r *Registry, interval time.Duration) *RuntimeCollector {
	c := NewRuntimeCollector(r)
	if c == nil {
		return nil
	}
	if interval <= 0 {
		interval = time.Second
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	// The poller is joined by Stop, which closes c.stop and waits on c.done.
	go func() {
		defer close(c.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.Poll()
			case <-c.stop:
				return
			}
		}
	}()
	return c
}

// NewRuntimeCollector builds an unstarted collector (no goroutine): the
// caller drives it with explicit Poll calls. Tests use this for
// deterministic single collections; StartRuntime wraps it with a ticker
// loop. Nil registry returns nil.
func NewRuntimeCollector(r *Registry) *RuntimeCollector {
	if r == nil {
		return nil
	}
	c := &RuntimeCollector{
		heapLive:   r.Gauge("runtime_heap_live_bytes"),
		heapGoal:   r.Gauge("runtime_heap_goal_bytes"),
		goroutines: r.Gauge("runtime_goroutines"),
		gcCycles:   r.Counter("runtime_gc_cycles_total"),
		gcPause:    r.Histogram("runtime_gc_pause_ns"),
		schedLat:   r.Histogram("runtime_sched_latency_ns"),
		samples: []metrics.Sample{
			{Name: runtimeHeapLive},
			{Name: runtimeHeapGoal},
			{Name: runtimeGoroutines},
			{Name: runtimeGCCycles},
			{Name: runtimeGCPauses},
			{Name: runtimeSchedLat},
		},
	}
	// Prime the cumulative baselines so the first Poll reports deltas
	// from collector construction, not from process start.
	metrics.Read(c.samples)
	for i := range c.samples {
		switch c.samples[i].Name {
		case runtimeGCCycles:
			if c.samples[i].Value.Kind() == metrics.KindUint64 {
				c.prevCycles = c.samples[i].Value.Uint64()
			}
		case runtimeGCPauses:
			c.prevPause = cloneBuckets(c.samples[i], nil)
		case runtimeSchedLat:
			c.prevSched = cloneBuckets(c.samples[i], nil)
		}
	}
	return c
}

// Poll reads every sample once and updates the registry. Safe to call
// directly (tests, or a caller with its own scheduler); the StartRuntime
// loop is just Poll on a ticker.
func (c *RuntimeCollector) Poll() {
	if c == nil {
		return
	}
	metrics.Read(c.samples)
	for i := range c.samples {
		s := &c.samples[i]
		switch s.Name {
		case runtimeHeapLive:
			setGaugeSample(c.heapLive, s)
		case runtimeHeapGoal:
			setGaugeSample(c.heapGoal, s)
		case runtimeGoroutines:
			setGaugeSample(c.goroutines, s)
		case runtimeGCCycles:
			if s.Value.Kind() != metrics.KindUint64 {
				continue
			}
			cur := s.Value.Uint64()
			if cur > c.prevCycles {
				c.gcCycles.Add(int64(cur - c.prevCycles))
			}
			c.prevCycles = cur
		case runtimeGCPauses:
			c.prevPause = foldHistogram(c.gcPause, s, c.prevPause)
		case runtimeSchedLat:
			c.prevSched = foldHistogram(c.schedLat, s, c.prevSched)
		}
	}
}

// Stop ends the polling goroutine (if StartRuntime started one) after a
// final Poll, so short-lived processes still report their last state.
func (c *RuntimeCollector) Stop() {
	if c == nil {
		return
	}
	if c.stop == nil {
		return
	}
	close(c.stop)
	<-c.done
	c.stop = nil
	c.Poll()
}

// setGaugeSample stores a uint64 sample into a gauge, clamping to the
// int64 range; unsupported kinds are skipped.
func setGaugeSample(g *Gauge, s *metrics.Sample) {
	if s.Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s.Value.Uint64()
	if v > math.MaxInt64 {
		v = math.MaxInt64
	}
	g.Set(int64(v))
}

// cloneBuckets copies a Float64Histogram sample's cumulative counts into
// dst (grown as needed); nil when the sample kind is unsupported.
func cloneBuckets(s metrics.Sample, dst []uint64) []uint64 {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	h := s.Value.Float64Histogram()
	return append(dst[:0], h.Counts...)
}

// foldHistogram records the per-bucket count growth since prev into obs
// histogram h at each bucket's midpoint in nanoseconds, and returns the
// new cumulative counts (reusing prev's storage). A bucket-count change
// (runtime version differences) resets the baseline instead of
// misattributing deltas.
func foldHistogram(h *Histogram, s *metrics.Sample, prev []uint64) []uint64 {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return prev
	}
	rh := s.Value.Float64Histogram()
	if len(prev) == len(rh.Counts) {
		for i, cur := range rh.Counts {
			if cur <= prev[i] {
				continue
			}
			h.ObserveN(bucketMidNS(rh.Buckets, i), int64(cur-prev[i]))
		}
	}
	return append(prev[:0], rh.Counts...)
}

// bucketMidNS returns the midpoint of runtime histogram bucket i in
// nanoseconds. Buckets has len(Counts)+1 boundaries; infinite edges
// clamp to the finite one.
func bucketMidNS(bounds []float64, i int) int64 {
	lo, hi := bounds[i], bounds[i+1]
	if math.IsInf(lo, -1) {
		lo = 0
	}
	if math.IsInf(hi, 1) {
		hi = lo
	}
	mid := (lo + hi) / 2
	if mid < 0 || math.IsNaN(mid) {
		return 0
	}
	return int64(mid * 1e9)
}
