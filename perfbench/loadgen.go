package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"slices"
	"syscall"
	"time"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/randx"
)

// The request classes the loops send.
const (
	kindRisk = iota
	kindTopK
	kindSnapshot
	kindDehin
	kindReload
)

// sample is one request as the client saw it. Latency counts from due,
// the time the schedule said to send it; in a closed loop due is the
// send time.
type sample struct {
	kind      int
	due, sent time.Time
	done      time.Time
	ok        bool
	connWait  time.Duration // GetConn -> GotConn
	write     time.Duration // GotConn -> WroteRequest
	ttfb      time.Duration // WroteRequest -> first response byte
	bodyRead  time.Duration // first response byte -> body read
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }
func (s sample) late() time.Duration    { return s.sent.Sub(s.due) }

// request is one prepared HTTP request.
type request struct {
	kind   int
	method string
	path   string
	body   []byte
	user   int
	dist   int
	snip   int // serve_mixed snippet index
}

// readMix draws the 90/5/5 risk/topk/snapshot read mix.
type readMix struct {
	rng   *randx.RNG
	users int
}

// newReadMix is connection i's read mix, seeded from the fixture's seed.
func newReadMix(f *fixture, i int) *readMix {
	return &readMix{rng: randx.New(f.seed).Split(uint64(9000 + i)), users: f.g.NumEntities()}
}

func (m *readMix) next() request {
	r := m.rng.Intn(100)
	d := m.rng.Intn(serveMaxDistance + 1)
	switch {
	case r < 90:
		u := m.rng.Intn(m.users)
		return request{kind: kindRisk, method: "GET", path: fmt.Sprintf("/v1/risk?user=%d&distance=%d", u, d), user: u, dist: d}
	case r < 95:
		return request{kind: kindTopK, method: "GET", path: fmt.Sprintf("/v1/topk?k=%d&distance=%d", serveTopK, d), dist: d}
	}
	return request{kind: kindSnapshot, method: "GET", path: "/v1/snapshot"}
}

// conn is one load connection and what it has seen.
type conn struct {
	client *http.Client
	base   string
	f      *fixture
	snips  []snippet
	// traced turns on the httptrace phase timings and, for every
	// traceEvery-th request, spans on the connection's own track.
	traced     bool
	rec        *recorder
	track      trace.Track
	lastEpoch  uint64
	lastReload uint64
	problems   []string
	failed     int
	samples    []sample
}

// do sends one request and checks its answer.
func (c *conn) do(r request, due time.Time) sample {
	s := sample{kind: r.kind, due: due}
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.path, body)
	if err != nil {
		panic(err) // the benchmark builds every request itself
	}
	var getConn, gotConn, wrote, firstByte time.Time
	if c.traced {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GetConn:              func(string) { getConn = time.Now() },
			GotConn:              func(httptrace.GotConnInfo) { gotConn = time.Now() },
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { firstByte = time.Now() },
		}))
	}
	var sp trace.Span
	if c.traced && len(c.samples)%traceEvery == 0 {
		if c.track == 0 {
			c.track = c.rec.tr.NewTrack()
		}
		sp = c.rec.tr.StartOn(c.track, "net.request")
		sp.Attr("req", int64(len(c.samples)))
		sp.Attr("kind", int64(r.kind))
	}
	rt := sp.Child("net.roundtrip")
	s.sent = time.Now()
	resp, err := c.client.Do(req)
	rt.End()
	var data []byte
	if err == nil {
		body := sp.Child("net.body")
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		body.End()
	}
	s.done = time.Now()
	if c.traced && !firstByte.IsZero() {
		s.connWait, s.write = gotConn.Sub(getConn), wrote.Sub(gotConn)
		s.ttfb, s.bodyRead = firstByte.Sub(wrote), s.done.Sub(firstByte)
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err == nil {
		ck := sp.Child("check")
		err = c.check(r, data)
		ck.End()
	}
	sp.End()
	s.ok = err == nil
	if err != nil {
		c.failed++
		if len(c.problems) < 10 {
			c.problems = append(c.problems, fmt.Sprintf("%s %s: %v", r.method, r.path, err))
		}
	}
	c.samples = append(c.samples, s)
	return s
}

// check compares a 200 answer with the oracle: risk and top-k against
// risk.SignatureGrid on the same file, /v1/dehin against
// dehin.Attack.Deanonymize on the same snippet. Epochs must be nonzero
// and never decrease on one connection.
func (c *conn) check(r request, data []byte) error {
	var a struct {
		Epoch       uint64          `json:"epoch"`
		User        int32           `json:"user"`
		Label       string          `json:"label"`
		Distance    int             `json:"distance"`
		ClassSize   int32           `json:"class_size"`
		Risk        float64         `json:"risk"`
		Users       json.RawMessage `json:"users"`
		DatasetRisk []float64       `json:"dataset_risk"`
		Candidates  int             `json:"candidates"`
		Matches     []struct {
			User int32 `json:"user"`
		} `json:"matches"`
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return fmt.Errorf("undecodable answer: %v", err)
	}
	if a.Epoch == 0 || a.Epoch < c.lastEpoch {
		return fmt.Errorf("epoch %d after %d", a.Epoch, c.lastEpoch)
	}
	c.lastEpoch = a.Epoch
	if r.kind == kindReload {
		if a.Epoch <= c.lastReload {
			return fmt.Errorf("reload answered epoch %d after %d", a.Epoch, c.lastReload)
		}
		c.lastReload = a.Epoch
	}
	f := c.f
	switch r.kind {
	case kindRisk:
		k := f.class[r.dist][r.user]
		if int(a.User) != r.user || a.Distance != r.dist || a.ClassSize != k || a.Risk != 1/float64(k) ||
			a.Label != f.g.Label(hin.EntityID(r.user)) {
			return fmt.Errorf("answer %+v, oracle class size %d", a, k)
		}
	case kindTopK:
		var users []struct {
			User      int32   `json:"user"`
			ClassSize int32   `json:"class_size"`
			Risk      float64 `json:"risk"`
		}
		if err := json.Unmarshal(a.Users, &users); err != nil || len(users) != serveTopK {
			return fmt.Errorf("top-k list %s", a.Users)
		}
		for i, u := range users {
			v := f.order[r.dist][i]
			if u.User != v || u.ClassSize != f.class[r.dist][v] || u.Risk != 1/float64(u.ClassSize) {
				return fmt.Errorf("top-k entry %d is %+v, oracle user %d", i, u, v)
			}
		}
	case kindSnapshot, kindReload:
		if len(a.DatasetRisk) != len(f.risk) {
			return fmt.Errorf("dataset risk %v, oracle %v", a.DatasetRisk, f.risk)
		}
		for i := range f.risk {
			if a.DatasetRisk[i] != f.risk[i] {
				return fmt.Errorf("dataset risk %v, oracle %v", a.DatasetRisk, f.risk)
			}
		}
	case kindDehin:
		want := c.snips[r.snip].want
		if a.Candidates != len(want) {
			return fmt.Errorf("%d candidates, oracle %d", a.Candidates, len(want))
		}
		for i, m := range a.Matches {
			if i >= len(want) || m.User != int32(want[i]) {
				return fmt.Errorf("match %d is %d, oracle %v", i, m.User, want)
			}
		}
		if len(a.Matches) != min(len(want), maxCandidates) {
			return fmt.Errorf("%d matches listed, oracle %d", len(a.Matches), len(want))
		}
	}
	return nil
}

// openLoop sends reads on a fixed schedule - rate per second, starting at
// start+offset - until end, regardless of how fast answers come back.
// A request due while the previous one is outstanding goes out late; its
// latency still counts from when it was due.
func (c *conn) openLoop(mix *readMix, rate float64, start time.Time, offset, dur time.Duration) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	end := start.Add(dur)
	first := len(c.samples)
	for i := 0; ; i++ {
		due := start.Add(offset + time.Duration(i)*interval)
		if !due.Before(end) {
			break
		}
		if d := time.Until(due); d > 0 {
			sleepPrecise(d)
		}
		c.do(mix.next(), due)
	}
	return c.samples[first:]
}

// latencies returns the latencies in microseconds of the successful
// samples of the given kinds.
func latencies(ss []sample, kinds ...int) []float64 {
	var out []float64
	for _, s := range ss {
		if s.ok && slices.Contains(kinds, s.kind) {
			out = append(out, micros(s.latency()))
		}
	}
	return out
}

func lateness(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = micros(s.late())
	}
	return out
}

// sortByDue orders samples by due time, so that a rung's connections
// interleave as their requests were scheduled.
func sortByDue(ss []sample) {
	slices.SortStableFunc(ss, func(a, b sample) int { return a.due.Compare(b.due) })
}

// lateGrows reports whether the generator fell further behind as the
// rung went on - the backlog of a rate past capacity: given the rung's
// samples in order of due time, the median lateness of the last quarter
// exceeds that of the first quarter by more than a millisecond. A median
// over a quarter of the rung ignores the short stalls of the host.
func lateGrows(ss []sample) bool {
	n := len(ss) / 4
	if n == 0 {
		return false
	}
	return median(lateness(ss[len(ss)-n:])) > median(lateness(ss[:n]))+backlogUS
}

// sleepPrecise blocks the calling thread in nanosleep(2). time.Sleep
// parks the goroutine on the runtime's timer, which on an idle process
// can wake a millisecond late; an open loop at thousands of requests per
// second needs the kernel's high-resolution timer instead. A thread in
// nanosleep keeps its P until the runtime takes it back, so the serve
// workloads give the process loadConns Ps more than it has CPUs (see
// startServe): the HTTP transport's goroutines must not wait for a
// sleeping generator.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
