package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/hinpriv/dehin/internal/obs/trace"
)

// recorder wraps the benchmark's calls into the program. With a nil
// tracer it only times them; traced, each call is also a span (children
// of the stage or request that caused it) and the Go runtime's allocation
// and GC-cycle counters are read before and after.
type recorder struct {
	tr *trace.Tracer
	// root parents the stages begun with rec.root; the zero Span makes
	// them roots of their own.
	root       trace.Span
	allocBytes uint64
	gcCycles   uint64
	samples    []metrics.Sample
}

func newRecorder(traced bool) *recorder {
	r := &recorder{}
	if traced {
		r.tr = trace.New(1 << 17)
		r.samples = []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
		}
	}
	return r
}

func (r *recorder) runtimeCounters() (alloc, gc uint64) {
	if r.tr == nil {
		return 0, 0
	}
	metrics.Read(r.samples)
	return r.samples[0].Value.Uint64(), r.samples[1].Value.Uint64()
}

// stage is one timed call.
type stage struct {
	rec      *recorder
	sp       trace.Span
	start    time.Time
	alloc0   uint64
	gc0      uint64
	measured bool
}

// begin opens a stage as a child of parent, or as a root span when parent
// is the zero Span. measure adds its runtime deltas to the recorder's
// totals; container stages pass false so work is not counted twice.
func (r *recorder) begin(parent trace.Span, name string, measure bool) *stage {
	s := &stage{rec: r, measured: measure}
	if r.tr != nil {
		if parent.Active() {
			s.sp = parent.Child(name)
		} else {
			s.sp = r.tr.Start(name)
		}
		if measure {
			s.alloc0, s.gc0 = r.runtimeCounters()
		}
	}
	s.start = time.Now()
	return s
}

func (s *stage) end() time.Duration {
	d := time.Since(s.start)
	if s.rec.tr != nil && s.measured {
		a, g := s.rec.runtimeCounters()
		s.rec.allocBytes += a - s.alloc0
		s.rec.gcCycles += g - s.gc0
	}
	s.sp.End()
	return d
}

// traceReport is what the traced run derives from its own export.
type traceReport struct {
	Path  string
	Spans int
	// Self and Total are per span name, in seconds: Total sums span
	// durations, Self sums each span's duration minus the part of it
	// that its children on the same track cover.
	Self  map[string]float64
	Total map[string]float64
}

// exportTrace writes the tracer's spans as Chrome trace-event JSON,
// checks the file with trace.ValidateChromeTrace and computes self
// times from the exported events.
func exportTrace(tr *trace.Tracer, path string) (traceReport, error) {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return traceReport{}, err
	}
	if d := tr.Dropped(); d > 0 {
		return traceReport{}, fmt.Errorf("trace buffer dropped %d spans", d)
	}
	st, err := trace.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		return traceReport{}, fmt.Errorf("exported trace is invalid: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return traceReport{}, err
	}
	self, total, err := selfTimes(buf.Bytes())
	if err != nil {
		return traceReport{}, err
	}
	return traceReport{Path: path, Spans: st.Spans, Self: self, Total: total}, nil
}

// selfTimes computes per-name self and total time from a Chrome trace.
// Spans on one track nest like a stack (ValidateChromeTrace checks it),
// so a span's children are the spans that open inside it on its track.
func selfTimes(blob []byte) (self, total map[string]float64, err error) {
	var d struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &d); err != nil {
		return nil, nil, err
	}
	type ev struct {
		name      string
		ts, dur   float64
		childTime float64
	}
	byTrack := map[uint64][]*ev{}
	for _, e := range d.TraceEvents {
		if e.Ph == "X" {
			byTrack[e.TID] = append(byTrack[e.TID], &ev{name: e.Name, ts: e.TS, dur: e.Dur})
		}
	}
	self, total = map[string]float64{}, map[string]float64{}
	for _, evs := range byTrack {
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].ts != evs[j].ts {
				return evs[i].ts < evs[j].ts
			}
			return evs[i].dur > evs[j].dur
		})
		var stack []*ev
		for _, e := range evs {
			for len(stack) > 0 && e.ts >= stack[len(stack)-1].ts+stack[len(stack)-1].dur {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				stack[len(stack)-1].childTime += e.dur
			}
			stack = append(stack, e)
		}
		for _, e := range evs {
			total[e.name] += e.dur / 1e6
			self[e.name] += (e.dur - e.childTime) / 1e6
		}
	}
	return self, total, nil
}
