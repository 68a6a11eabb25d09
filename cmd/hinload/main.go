// Command hinload drives a deterministic query load against a hinriskd
// server and reports exact latency quantiles in the benchjson snapshot
// format, so service p99s join the same benchdiff regression gate as the
// library benchmarks.
//
// The query mix is seeded: worker w draws its request stream from
// randx.Shard(seed, w), so two runs with the same flags issue the same
// requests in the same per-worker order. Pacing is an open-loop QPS
// schedule - request i fires at start + i/qps, taken from a shared atomic
// counter - so the offered load is reproducible and does not degrade
// coordinated-omission style when the server slows down; -qps 0 switches
// to a closed loop that fires as fast as -conc workers allow.
//
// Usage:
//
//	hinload -url http://127.0.0.1:8321 -duration 30s -qps 12000
//	hinload -launch "bin/hinriskd -graph g.hincsr -addr 127.0.0.1:0" \
//	        -duration 5s -out report.json
//
// With -launch, hinload starts the server itself, parses the bound
// address from its "listening http://..." stdout line, and SIGTERMs it
// when the run completes.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/hinpriv/dehin/internal/benchjson"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/randx"
)

// logger is the command's structured stderr output (see internal/obs).
var logger = obs.NewLogger(os.Stderr, slog.LevelInfo)

func main() {
	var (
		url       = flag.String("url", "", "base URL of a running hinriskd (mutually exclusive with -launch)")
		launch    = flag.String("launch", "", "hinriskd command line to start and drive")
		duration  = flag.Duration("duration", 30*time.Second, "load duration")
		qps       = flag.Float64("qps", 0, "offered aggregate QPS (0 = closed loop)")
		conc      = flag.Int("conc", 8, "concurrent workers")
		seed      = flag.Uint64("seed", 1, "query-mix seed")
		mix       = flag.String("mix", "risk=90,topk=4,snapshot=3,dehin=3", "endpoint weights")
		out       = flag.String("out", "", "write a benchjson report here")
		waitReady = flag.Duration("wait-ready", 0, "poll /v1/healthz for up to this long before starting the schedule")
		checkObs  = flag.Bool("check-obs", false, "after the run, scrape /metrics and /debug/requests and fail if the serve/runtime families are missing or malformed")
	)
	flag.Parse()
	if (*url == "") == (*launch == "") {
		fatalf("exactly one of -url or -launch is required")
	}

	base := *url
	var stopServer func()
	if *launch != "" {
		var err error
		base, stopServer, err = launchServer(*launch)
		if err != nil {
			fatalf("launch: %v", err)
		}
		defer stopServer()
	}
	base = strings.TrimRight(base, "/")

	if *waitReady > 0 {
		if err := waitHealthy(base, *waitReady); err != nil {
			fatalf("wait-ready: %v", err)
		}
	}

	users, maxDistance, err := probeSnapshot(base)
	if err != nil {
		fatalf("probe %s/v1/snapshot: %v", base, err)
	}
	weights, err := parseMix(*mix)
	if err != nil {
		fatalf("%v", err)
	}
	logger.Info("load starting", "url", base, "users", users,
		"duration", duration.String(), "qps", *qps, "conc", *conc, "seed", *seed)

	res := run(loadSpec{
		base: base, users: users, maxDistance: maxDistance,
		duration: *duration, qps: *qps, conc: *conc, seed: *seed,
		weights: weights,
	})

	printReport(res)
	if *out != "" {
		if err := benchjson.Write(*out, res.benchEntries()); err != nil {
			fatalf("write %s: %v", *out, err)
		}
	}
	if *checkObs {
		// Scrape while the (possibly -launch'd) server is still up.
		if err := checkObsSurface(base); err != nil {
			fatalf("check-obs: %v", err)
		}
		logger.Info("obs surface ok", "url", base)
	}
	if stopServer != nil {
		// Every client here shares http.DefaultTransport. Close its idle
		// connections first: one it dialled but never sent a request on
		// counts as active to the daemon's graceful shutdown for its first
		// 5 s, which is the daemon's whole drain budget.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		stopServer()
		stopServer = nil
	}
	if res.errors() > 0 {
		fatalf("%d request(s) failed", res.errors())
	}
}

// launchServer starts the given server command line, waits for its
// "listening http://..." announcement, and returns the base URL plus an
// idempotent stop func (SIGTERM, then wait).
func launchServer(cmdline string) (string, func(), error) {
	args := strings.Fields(cmdline)
	if len(args) == 0 {
		return "", nil, fmt.Errorf("empty -launch command")
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	var line string
	select {
	case line = <-lines:
	case <-time.After(2 * time.Minute):
		cmd.Process.Kill()
		return "", nil, fmt.Errorf("server did not announce an address")
	}
	base, ok := strings.CutPrefix(line, "listening ")
	if !ok {
		cmd.Process.Kill()
		return "", nil, fmt.Errorf("unexpected announcement %q", line)
	}
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }() //hin:allow errdrop -- reaping at teardown: the exit status is irrelevant here
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
	return base, stop, nil
}

// waitHealthy polls /v1/healthz until it answers 200 (snapshot loaded)
// or the timeout lapses — the readiness gate for scripts that race the
// daemon's first load.
func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 2 * time.Second}
	var last error
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/v1/healthz")
		if err != nil {
			last = err
		} else {
			io.Copy(io.Discard, resp.Body) //hin:allow errdrop -- best-effort drain so the keep-alive connection is reusable
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return nil
			}
			last = fmt.Errorf("status %d", resp.StatusCode)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("not ready after %v: %v", timeout, last)
}

// requiredMetricFamilies are the families -check-obs demands on
// /metrics: the request-path surface plus the runtime collector's. The
// smoke launches hinriskd with the flight recorder and runtime
// telemetry on, so their absence means the wiring broke.
var requiredMetricFamilies = []string{
	"serve_requests_total",
	"serve_request_ns",
	"serve_epoch",
	"serve_snapshot_age_s",
	"serve_snapshot_build_ns",
	"serve_flight_captured_total",
	"runtime_heap_live_bytes",
	"runtime_heap_goal_bytes",
	"runtime_goroutines",
	"runtime_gc_pause_ns",
	"runtime_sched_latency_ns",
}

// checkObsSurface asserts the server's observability endpoints are
// present and well-formed: every required family appears in the
// Prometheus text (with a # TYPE line), /v1/healthz answers ok, and
// /debug/requests?format=json decodes into the flight recorder
// envelope.
func checkObsSurface(base string) error {
	if err := waitHealthy(base, 2*time.Second); err != nil {
		return fmt.Errorf("healthz: %v", err)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	text, _ := io.ReadAll(resp.Body) //hin:allow errdrop -- diagnostic body: a partial read still improves the error message
	resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	for _, fam := range requiredMetricFamilies {
		if !bytes.Contains(text, []byte("# TYPE "+fam+" ")) {
			return fmt.Errorf("/metrics missing family %s", fam)
		}
		if !bytes.Contains(text, []byte("\n"+fam)) && !bytes.HasPrefix(text, []byte(fam)) {
			return fmt.Errorf("/metrics family %s has no samples", fam)
		}
	}
	resp, err = http.Get(base + "/debug/requests?format=json")
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body) //hin:allow errdrop -- diagnostic body: a partial read still improves the error message
	resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("/debug/requests status %d: %s", resp.StatusCode, body)
	}
	var flight struct {
		Captured int64             `json:"captured"`
		Total    int64             `json:"total"`
		Records  []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(body, &flight); err != nil {
		return fmt.Errorf("/debug/requests: %v", err)
	}
	if flight.Total == 0 {
		return fmt.Errorf("/debug/requests reports zero finished requests after a load run")
	}
	if int64(len(flight.Records)) < min64(flight.Captured, 1) {
		return fmt.Errorf("/debug/requests: %d captured but %d records", flight.Captured, len(flight.Records))
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func probeSnapshot(base string) (users, maxDistance int, err error) {
	resp, err := http.Get(base + "/v1/snapshot")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body) //hin:allow errdrop -- diagnostic body: a partial read still improves the error message
	if resp.StatusCode != 200 {
		return 0, 0, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var info struct {
		Users       int `json:"users"`
		MaxDistance int `json:"max_distance"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return 0, 0, err
	}
	if info.Users == 0 {
		return 0, 0, fmt.Errorf("empty snapshot")
	}
	return info.Users, info.MaxDistance, nil
}

// kinds are the drivable endpoints, in mix order.
var kinds = []string{"risk", "topk", "snapshot", "dehin"}

func parseMix(s string) (map[string]int, error) {
	w := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad mix element %q", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad mix weight %q", part)
		}
		known := false
		for _, k := range kinds {
			known = known || k == name
		}
		if !known {
			return nil, fmt.Errorf("unknown mix endpoint %q", name)
		}
		w[name] = n
	}
	total := 0
	for _, n := range w {
		total += n
	}
	if total == 0 {
		return nil, fmt.Errorf("mix %q has zero total weight", s)
	}
	return w, nil
}

type loadSpec struct {
	base        string
	users       int
	maxDistance int
	duration    time.Duration
	qps         float64
	conc        int
	seed        uint64
	weights     map[string]int
}

// kindStats collects one endpoint's raw latencies (exact quantiles beat
// bucketed ones for a sub-5ms p99 gate) and failure count.
type kindStats struct {
	lat  []int64
	errs int64
}

type loadResult struct {
	spec    loadSpec
	elapsed time.Duration
	stats   map[string]*kindStats
}

// run fires the load and aggregates per-endpoint stats. Worker w's query
// stream comes from randx.Shard(seed, w); with -qps the global schedule
// assigns request i the start time i/qps via a shared atomic counter.
func run(spec loadSpec) loadResult {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		merged  = map[string]*kindStats{}
		nextReq atomic.Int64
	)
	for _, k := range kinds {
		merged[k] = &kindStats{}
	}
	start := time.Now()
	deadline := start.Add(spec.duration)
	for w := 0; w < spec.conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := map[string]*kindStats{}
			for _, k := range kinds {
				local[k] = &kindStats{}
			}
			worker(spec, w, start, deadline, &nextReq, local)
			mu.Lock()
			for k, st := range local {
				merged[k].lat = append(merged[k].lat, st.lat...)
				merged[k].errs += st.errs
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return loadResult{spec: spec, elapsed: time.Since(start), stats: merged}
}

func worker(spec loadSpec, w int, start, deadline time.Time, nextReq *atomic.Int64, stats map[string]*kindStats) {
	rng := randx.Shard(spec.seed, uint64(w))
	client := &http.Client{Timeout: 10 * time.Second}
	total := 0
	for _, n := range spec.weights {
		total += n
	}
	for {
		if spec.qps > 0 {
			i := nextReq.Add(1) - 1
			at := start.Add(time.Duration(float64(i) / spec.qps * float64(time.Second)))
			if at.After(deadline) {
				return
			}
			time.Sleep(time.Until(at))
		} else if !time.Now().Before(deadline) {
			return
		}
		kind := pickKind(rng, spec.weights, total)
		req := buildRequest(rng, spec, kind)
		t0 := time.Now()
		ok := fire(client, req)
		ns := time.Since(t0).Nanoseconds()
		st := stats[kind]
		st.lat = append(st.lat, ns)
		if !ok {
			st.errs++
		}
	}
}

func pickKind(rng *randx.RNG, weights map[string]int, total int) string {
	n := rng.Intn(total)
	for _, k := range kinds {
		n -= weights[k]
		if n < 0 {
			return k
		}
	}
	return kinds[0]
}

// request is one prepared query: method, URL and optional body.
type request struct {
	method string
	url    string
	body   []byte
}

func buildRequest(rng *randx.RNG, spec loadSpec, kind string) request {
	switch kind {
	case "risk":
		return request{method: "GET",
			url: fmt.Sprintf("%s/v1/risk?user=%d&distance=%d",
				spec.base, rng.Intn(spec.users), rng.Intn(spec.maxDistance+1))}
	case "topk":
		return request{method: "GET",
			url: fmt.Sprintf("%s/v1/topk?k=%d&distance=%d",
				spec.base, rng.IntRange(1, 50), rng.Intn(spec.maxDistance+1))}
	case "snapshot":
		return request{method: "GET", url: spec.base + "/v1/snapshot"}
	default: // dehin: a profile-only snippet with plausible t.qq-ish attrs
		//hin:allow errdrop -- marshaling a literal map of strings and ints cannot fail
		body, _ := json.Marshal(map[string]any{
			"target": 0,
			"entities": []map[string]any{{
				"type": "User",
				"attrs": []int64{int64(rng.IntRange(1940, 2005)), int64(rng.Intn(3)),
					int64(rng.Intn(1000)), int64(rng.Intn(11))},
			}},
		})
		return request{method: "POST", url: spec.base + "/v1/dehin", body: body}
	}
}

// fire issues one request and reports success: HTTP 200 and a decodable
// body with a non-zero epoch (the reload soak relies on this to prove no
// request ever saw a torn or retired state).
func fire(client *http.Client, r request) bool {
	var (
		resp *http.Response
		err  error
	)
	if r.method == "GET" {
		resp, err = client.Get(r.url)
	} else {
		resp, err = client.Post(r.url, "application/json", bytes.NewReader(r.body))
	}
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		return false
	}
	var e struct {
		Epoch uint64 `json:"epoch"`
	}
	return json.Unmarshal(body, &e) == nil && e.Epoch != 0
}

func (r loadResult) errors() int64 {
	var n int64
	for _, st := range r.stats {
		n += st.errs
	}
	return n
}

func (r loadResult) requests() int64 {
	var n int64
	for _, st := range r.stats {
		n += int64(len(st.lat))
	}
	return n
}

// quantile returns the exact q-th latency quantile of a sorted sample.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func printReport(r loadResult) {
	fmt.Printf("ran %s: %d requests, %d errors, %.0f req/s\n",
		r.elapsed.Round(time.Millisecond), r.requests(), r.errors(),
		float64(r.requests())/r.elapsed.Seconds())
	fmt.Printf("%-10s %10s %8s %10s %10s %10s\n", "endpoint", "requests", "errors", "p50", "p95", "p99")
	for _, k := range kinds {
		st := r.stats[k]
		if len(st.lat) == 0 {
			continue
		}
		sort.Slice(st.lat, func(i, j int) bool { return st.lat[i] < st.lat[j] })
		fmt.Printf("%-10s %10d %8d %10s %10s %10s\n", k, len(st.lat), st.errs,
			time.Duration(quantile(st.lat, 0.50)).Round(time.Microsecond),
			time.Duration(quantile(st.lat, 0.95)).Round(time.Microsecond),
			time.Duration(quantile(st.lat, 0.99)).Round(time.Microsecond))
	}
}

// benchEntries renders the run as benchjson entries: one per endpoint,
// named BenchmarkLoad<Endpoint>, with ns_per_op = exact p99 so benchdiff
// gates service tail latency exactly like library ns/op regressions.
func (r loadResult) benchEntries() map[string]benchjson.Entry {
	out := map[string]benchjson.Entry{}
	for _, k := range kinds {
		st := r.stats[k]
		if len(st.lat) == 0 {
			continue
		}
		sort.Slice(st.lat, func(i, j int) bool { return st.lat[i] < st.lat[j] })
		out["BenchmarkLoad"+strings.ToUpper(k[:1])+k[1:]] = benchjson.Entry{
			Iterations: int64(len(st.lat)),
			NsPerOp:    float64(quantile(st.lat, 0.99)),
			Metrics: map[string]float64{
				"p50_ns": float64(quantile(st.lat, 0.50)),
				"p95_ns": float64(quantile(st.lat, 0.95)),
				"errors": float64(st.errs),
				"qps":    float64(r.requests()) / r.elapsed.Seconds(),
			},
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
