package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// Snapshot is a point-in-time copy of every metric in a registry,
// suitable for JSON encoding, expvar publishing, or asserting in tests.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// HistSnapshot is one histogram's copied state. Buckets lists only the
// non-empty buckets (raw, not cumulative) by their inclusive upper bound.
// P50/P95/P99 are the Quantile estimates at snapshot time (0 when the
// histogram is empty).
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	P50     int64    `json:"p50"`
	P95     int64    `json:"p95"`
	P99     int64    `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-th quantile (q in [0,1]) from the power-of-two
// buckets: the bucket holding the q*Count-th observation is found by a
// cumulative walk and the value is linearly interpolated inside it. The
// bucket bounds cap the error at a factor of 2, which is plenty for
// latency triage (is p99 microseconds or milliseconds?); exact ranks
// would require recording raw observations, which the fixed-size
// histogram deliberately does not. A series of one observation is the
// exception: its Sum is that observation, which is then every quantile.
func (h HistSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if h.Count == 1 {
		return h.Sum
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	var cum int64
	for _, b := range h.Buckets {
		if float64(cum+b.Count) < target {
			cum += b.Count
			continue
		}
		lo := b.UpperBound/2 + 1 // inclusive lower bound; bucket 0 is {0}
		if b.UpperBound == 0 {
			lo = 0
		}
		frac := (target - float64(cum)) / float64(b.Count)
		return lo + int64(frac*float64(b.UpperBound-lo))
	}
	// Only reachable through floating-point edge rounding: fall back to
	// the largest observed bucket's bound.
	return h.Buckets[len(h.Buckets)-1].UpperBound
}

// Bucket is one non-empty histogram bucket.
type Bucket struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// Counter returns the snapshotted value of the named series (0 when
// absent), so views over a snapshot read consistently instead of
// re-loading live atomics one by one.
func (s Snapshot) Counter(id string) int64 { return s.Counters[id] }

// Gauge returns the snapshotted level of the named gauge series (0 when
// absent).
func (s Snapshot) Gauge(id string) int64 { return s.Gauges[id] }

// Snapshot copies every metric. Writers are never blocked - metrics stay
// lock-free - so a snapshot taken mid-run cannot be a single atomic cut;
// instead the registry is read repeatedly until two consecutive passes
// observe identical values (a quiescent-point read), giving an internally
// consistent snapshot whenever writers pause even briefly. Under sustained
// writer pressure the read is capped at snapshotAttempts passes and the
// last pass is returned: every individual value is then still a real value
// the metric held during the call, and all values are monotone, so
// successive snapshots never move backwards.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Histograms: map[string]HistSnapshot{}}
	}
	prev := r.readPass()
	for i := 0; i < snapshotAttempts-1; i++ {
		cur := r.readPass()
		if passesEqual(prev, cur) {
			break
		}
		prev = cur
	}
	return prev.toSnapshot()
}

const snapshotAttempts = 4

// pass is one raw read of every metric, in a deterministic order so two
// passes can be compared cheaply.
type pass struct {
	counterIDs []string
	counters   []int64
	gaugeIDs   []string
	gauges     []int64
	histIDs    []string
	hists      [][NumBuckets + 1]int64 // buckets then sum
}

func (r *Registry) readPass() pass {
	r.mu.Lock()
	var p pass
	p.counterIDs = make([]string, 0, len(r.counters))
	for id := range r.counters {
		p.counterIDs = append(p.counterIDs, id)
	}
	p.gaugeIDs = make([]string, 0, len(r.gauges))
	for id := range r.gauges {
		p.gaugeIDs = append(p.gaugeIDs, id)
	}
	p.histIDs = make([]string, 0, len(r.hists))
	for id := range r.hists {
		p.histIDs = append(p.histIDs, id)
	}
	counters := make([]*Counter, len(p.counterIDs))
	gauges := make([]*Gauge, len(p.gaugeIDs))
	hists := make([]*Histogram, len(p.histIDs))
	sort.Strings(p.counterIDs)
	sort.Strings(p.gaugeIDs)
	sort.Strings(p.histIDs)
	for i, id := range p.counterIDs {
		counters[i] = r.counters[id]
	}
	for i, id := range p.gaugeIDs {
		gauges[i] = r.gauges[id]
	}
	for i, id := range p.histIDs {
		hists[i] = r.hists[id]
	}
	r.mu.Unlock()

	p.counters = make([]int64, len(counters))
	for i, c := range counters {
		p.counters[i] = c.Value()
	}
	p.gauges = make([]int64, len(gauges))
	for i, g := range gauges {
		p.gauges[i] = g.Value()
	}
	p.hists = make([][NumBuckets + 1]int64, len(hists))
	for i, h := range hists {
		for b := 0; b < NumBuckets; b++ {
			p.hists[i][b] = h.counts[b].Load()
		}
		p.hists[i][NumBuckets] = h.sum.Load()
	}
	return p
}

func passesEqual(a, b pass) bool {
	if len(a.counters) != len(b.counters) || len(a.gauges) != len(b.gauges) || len(a.hists) != len(b.hists) {
		return false
	}
	for i := range a.counters {
		if a.counters[i] != b.counters[i] || a.counterIDs[i] != b.counterIDs[i] {
			return false
		}
	}
	for i := range a.gauges {
		if a.gauges[i] != b.gauges[i] || a.gaugeIDs[i] != b.gaugeIDs[i] {
			return false
		}
	}
	for i := range a.hists {
		if a.hists[i] != b.hists[i] || a.histIDs[i] != b.histIDs[i] {
			return false
		}
	}
	return true
}

func (p pass) toSnapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64, len(p.counters)),
		Histograms: make(map[string]HistSnapshot, len(p.hists)),
	}
	for i, id := range p.counterIDs {
		s.Counters[id] = p.counters[i]
	}
	if len(p.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(p.gauges))
		for i, id := range p.gaugeIDs {
			s.Gauges[id] = p.gauges[i]
		}
	}
	for i, id := range p.histIDs {
		var hs HistSnapshot
		hs.Sum = p.hists[i][NumBuckets]
		for b := 0; b < NumBuckets; b++ {
			if c := p.hists[i][b]; c > 0 {
				hs.Count += c
				hs.Buckets = append(hs.Buckets, Bucket{UpperBound: BucketUpperBound(b), Count: c})
			}
		}
		hs.P50 = hs.Quantile(0.50)
		hs.P95 = hs.Quantile(0.95)
		hs.P99 = hs.Quantile(0.99)
		s.Histograms[id] = hs
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per family, series sorted, and
// histograms expanded into cumulative _bucket/_sum/_count series with
// power-of-two le bounds. Families are emitted counters first, then
// histograms, each alphabetically, so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	p := r.Snapshot()

	counterIDs := sortedKeys(p.Counters)
	lastFamily := ""
	for _, id := range counterIDs {
		family, labels := splitSeries(id)
		if family != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", family); err != nil {
				return err
			}
			lastFamily = family
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", family, labels, p.Counters[id]); err != nil {
			return err
		}
	}

	gaugeIDs := sortedKeys(p.Gauges)
	lastFamily = ""
	for _, id := range gaugeIDs {
		family, labels := splitSeries(id)
		if family != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", family); err != nil {
				return err
			}
			lastFamily = family
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", family, labels, p.Gauges[id]); err != nil {
			return err
		}
	}

	histIDs := sortedKeys(p.Histograms)
	lastFamily = ""
	for _, id := range histIDs {
		family, labels := splitSeries(id)
		if family != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", family); err != nil {
				return err
			}
			lastFamily = family
		}
		h := p.Histograms[id]
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				family, withLE(labels, strconv.FormatInt(b.UpperBound, 10)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", family, withLE(labels, "+Inf"), h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", family, labels, h.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", family, labels, h.Count); err != nil {
			return err
		}
	}

	// Quantile estimates ride along as per-family gauge families
	// (<family>_p50/_p95/_p99) after the histogram blocks, keeping each
	// family's samples contiguous as the text format requires.
	for _, suffix := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
		lastFamily = ""
		for _, id := range histIDs {
			family, labels := splitSeries(id)
			if family != lastFamily {
				if _, err := fmt.Fprintf(w, "# TYPE %s_%s gauge\n", family, suffix.name); err != nil {
					return err
				}
				lastFamily = family
			}
			if _, err := fmt.Fprintf(w, "%s_%s%s %d\n",
				family, suffix.name, labels, p.Histograms[id].Quantile(suffix.q)); err != nil {
				return err
			}
		}
	}
	return nil
}

// withLE merges the reserved le label into an existing (possibly empty)
// label block.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteJSON renders the snapshot as indented JSON (the -metrics-dump
// format archived next to BENCH_*.json).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// DumpJSON writes the snapshot to a file.
func (r *Registry) DumpJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
