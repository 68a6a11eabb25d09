package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/tqq"
)

var update = flag.Bool("update", false, "rewrite golden files")

// ageRE masks the wall-clock snapshot age in healthz bodies.
var ageRE = regexp.MustCompile(`"age_s":[0-9.eE+-]+`)

// TestMain lets the test binary impersonate the real command: re-executed
// with HINRISKD_RUN_MAIN=1 it runs main() on the given arguments, so the
// conformance suite exercises the true daemon (flag parsing, snapshot
// load, signal handling, HTTP stack) without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("HINRISKD_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fixtureUsers/fixtureSeed pin the conformance graph; tqq generation is
// byte-deterministic, so every response below is reproducible and the
// transcript can be a golden file.
const (
	fixtureUsers = 800
	fixtureSeed  = 11
)

// syncBuffer collects a child process's output. os/exec copies into it
// from its own goroutine while the test polls it, so both sides lock.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon launches hinriskd as a real subprocess on a free port and
// returns its base URL plus a shutdown func that SIGTERMs and waits.
func startDaemon(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HINRISKD_RUN_MAIN=1")
	var stderr syncBuffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	lines := make(chan string, 1)
	go func() {
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var line string
	select {
	case line = <-lines:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon did not announce its address\nstderr:\n%s", stderr.String())
	}
	base, ok := strings.CutPrefix(line, "listening ")
	if !ok {
		cmd.Process.Kill()
		t.Fatalf("unexpected announcement %q", line)
	}
	stop := func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon exit: %v\nstderr:\n%s", err, stderr.String())
			}
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			t.Error("daemon did not exit on SIGTERM")
		}
	}
	return base, stop
}

func writeFixtureGraph(t *testing.T) (string, *hin.Graph) {
	t.Helper()
	ds, err := tqq.Generate(tqq.DefaultConfig(fixtureUsers, fixtureSeed))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fixture.hincsr")
	if err := hin.WriteCSRFile(path, ds.Graph); err != nil {
		t.Fatal(err)
	}
	return path, ds.Graph
}

// apiCase is one conformance request. Body "" means GET; bodyFile loads a
// committed fixture from testdata.
type apiCase struct {
	name     string
	method   string
	path     string
	bodyFile string
	body     string // inline body; used when bodyFile is empty
	bodyNote string // transcript annotation for generated bodies
}

// TestAPIConformanceGolden drives every /v1 endpoint of a live daemon -
// happy paths, malformed bodies, unknown users, oversized k, snippet
// limit overflows, wrong methods, and a reload - and pins the full
// byte-exact transcript (status + body per request) as a golden file.
// Regenerate with: go test ./cmd/hinriskd -run Conformance -update
func TestAPIConformanceGolden(t *testing.T) {
	graphPath, g := writeFixtureGraph(t)

	if *update {
		writeSnippetFixtures(t, g)
	}

	base, stop := startDaemon(t, "-graph", graphPath, "-addr", "127.0.0.1:0")
	defer stop()

	oversized, err := json.Marshal(oversizedSnippet(300))
	if err != nil {
		t.Fatal(err)
	}
	cases := []apiCase{
		{name: "snapshot", method: "GET", path: "/v1/snapshot"},
		{name: "risk default distance", method: "GET", path: "/v1/risk?user=17"},
		{name: "risk distance 0", method: "GET", path: "/v1/risk?user=17&distance=0"},
		{name: "risk missing user", method: "GET", path: "/v1/risk"},
		{name: "risk malformed user", method: "GET", path: "/v1/risk?user=abc"},
		{name: "risk distance out of range", method: "GET", path: "/v1/risk?user=17&distance=9"},
		{name: "risk unknown user", method: "GET", path: "/v1/risk?user=99999"},
		{name: "topk", method: "GET", path: "/v1/topk?k=5&distance=2"},
		{name: "topk oversized k", method: "GET", path: "/v1/topk?k=5000"},
		{name: "topk non-positive k", method: "GET", path: "/v1/topk?k=-1"},
		{name: "dehin", method: "POST", path: "/v1/dehin", bodyFile: "dehin_happy.json"},
		{name: "dehin no links", method: "POST", path: "/v1/dehin", bodyFile: "dehin_profile_only.json"},
		{name: "dehin malformed body", method: "POST", path: "/v1/dehin", bodyFile: "dehin_malformed.json"},
		{name: "dehin unknown entity type", method: "POST", path: "/v1/dehin", bodyFile: "dehin_badtype.json"},
		{name: "dehin oversized snippet", method: "POST", path: "/v1/dehin",
			body: string(oversized), bodyNote: "(generated: 300-entity snippet)"},
		{name: "dehin wrong method", method: "GET", path: "/v1/dehin"},
		{name: "reload", method: "POST", path: "/v1/reload", body: "{}"},
		{name: "risk after reload", method: "GET", path: "/v1/risk?user=17"},
		{name: "healthz", method: "GET", path: "/v1/healthz"},
		{name: "debug requests disabled", method: "GET", path: "/debug/requests"},
	}

	var transcript bytes.Buffer
	for _, c := range cases {
		body := c.body
		note := c.bodyNote
		if c.bodyFile != "" {
			raw, err := os.ReadFile(filepath.Join("testdata", c.bodyFile))
			if err != nil {
				t.Fatalf("%s: missing fixture (regenerate with -update): %v", c.name, err)
			}
			body = string(raw)
			note = "<- testdata/" + c.bodyFile
		}
		var req *http.Request
		if c.method == "GET" {
			req, err = http.NewRequest("GET", base+c.path, nil)
		} else {
			req, err = http.NewRequest(c.method, base+c.path, strings.NewReader(body))
			if req != nil {
				req.Header.Set("Content-Type", "application/json")
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		respBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Fprintf(&transcript, "=== %s: %s %s %s\nstatus %d\n%s\n",
			c.name, c.method, c.path, note, resp.StatusCode, respBody)
	}

	// The fixture lives in a per-run temp dir and the healthz age is wall
	// time; normalize both run-dependent tokens so the transcript is
	// stable.
	normalized := strings.ReplaceAll(transcript.String(), graphPath, "GRAPH")
	normalized = ageRE.ReplaceAllString(normalized, `"age_s":AGE`)

	golden := filepath.Join("testdata", "api_conformance.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(normalized), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if normalized != string(want) {
		t.Fatalf("transcript differs from %s\ngot:\n%s", golden, diffHint(normalized, string(want)))
	}
}

// TestSIGTERMDrainsInFlight sends SIGTERM while a /v1/dehin request is
// half uploaded: the daemon must stop accepting new connections, finish
// the in-flight request with a 200, and then exit 0. The request asks
// for 100-continue, so the interim response proves the handler is
// already reading the body when the signal arrives.
func TestSIGTERMDrainsInFlight(t *testing.T) {
	graphPath, _ := writeFixtureGraph(t)
	body, err := os.ReadFile(filepath.Join("testdata", "dehin_happy.json"))
	if err != nil {
		t.Fatal(err)
	}
	base, stop := startDaemon(t, "-graph", graphPath, "-addr", "127.0.0.1:0")
	// terminate sends SIGTERM once, without waiting; the deferred wait
	// also stops the daemon when the test fails before the signal.
	stopped := make(chan struct{})
	terminate := sync.OnceFunc(func() {
		go func() {
			defer close(stopped)
			stop() // SIGTERM, then wait for exit status 0
		}()
	})
	defer func() {
		terminate()
		<-stopped
	}()
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := fmt.Sprintf("POST /v1/dehin HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\nExpect: 100-continue\r\nConnection: close\r\n\r\n", addr, len(body))
	if _, err := io.WriteString(conn, head); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusContinue {
		t.Fatalf("want 100 Continue before the body, got %v, %v", resp, err)
	}
	half := len(body) / 2
	if _, err := conn.Write(body[:half]); err != nil {
		t.Fatal(err)
	}

	terminate()
	// A refused dial proves Shutdown has closed the listener.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("daemon kept accepting connections after SIGTERM")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if _, err := conn.Write(body[half:]); err != nil {
		t.Fatalf("sending the rest of the body after SIGTERM: %v", err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("in-flight request cut off by SIGTERM: %v", err)
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !json.Valid(respBody) {
		t.Fatalf("in-flight request = %d %q, want 200 with a JSON body", resp.StatusCode, respBody)
	}
}

// TestReadHeaderTimeoutDropsSlowHeaders holds a connection that sends a
// request line and one header but never the blank line ending them: the
// daemon must drop it once readHeaderTimeout passes, while a second
// connection is still answered. It waits out the real bound, so it takes
// about readHeaderTimeout.
func TestReadHeaderTimeoutDropsSlowHeaders(t *testing.T) {
	graphPath, _ := writeFixtureGraph(t)
	base, stop := startDaemon(t, "-graph", graphPath, "-addr", "127.0.0.1:0")
	defer stop()
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET /v1/healthz HTTP/1.1\r\nHost: %s\r\n", addr); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz beside a slow client = %d, want 200", resp.StatusCode)
	}

	if err := conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 2*time.Second)); err != nil {
		t.Fatal(err)
	}
	// The daemon closes the connection without a reply; ReadAll returns at
	// that EOF, or with a timeout if the connection is still open.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("slow-header connection still open %v after its headers began: %v", readHeaderTimeout+2*time.Second, err)
	}
}

// TestMaxHeaderBytesRejectsOversizedHeaders sends a request whose headers
// are twice maxHeaderBytes: the daemon must answer 431 and close that
// connection, and a request on a fresh connection must still get a 200.
func TestMaxHeaderBytesRejectsOversizedHeaders(t *testing.T) {
	graphPath, _ := writeFixtureGraph(t)
	base, stop := startDaemon(t, "-graph", graphPath, "-addr", "127.0.0.1:0")
	defer stop()
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("a", 2*maxHeaderBytes)
	if _, err := fmt.Fprintf(conn, "GET /v1/healthz HTTP/1.1\r\nHost: %s\r\nX-Pad: %s\r\n\r\n", addr, pad); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized headers = %d, want 431", resp.StatusCode)
	}

	fresh := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err = fresh.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after an oversized request = %d, want 200", resp.StatusCode)
	}
}

// writeSnippetFixtures derives the committed request fixtures from the
// deterministic fixture graph: a real user-42 neighborhood snippet, a
// profile-only snippet, and the two malformed bodies.
func writeSnippetFixtures(t *testing.T, g *hin.Graph) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join("testdata", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	happy, err := json.MarshalIndent(snippetFromUser(g, 42), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	write("dehin_happy.json", append(happy, '\n'))
	profile, err := json.MarshalIndent(snippetFromUser(g, 7), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var profileOnly map[string]any
	if err := json.Unmarshal(profile, &profileOnly); err != nil {
		t.Fatal(err)
	}
	delete(profileOnly, "links")
	if ents, ok := profileOnly["entities"].([]any); ok && len(ents) > 0 {
		profileOnly["entities"] = ents[:1]
	}
	po, err := json.MarshalIndent(profileOnly, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	write("dehin_profile_only.json", append(po, '\n'))
	write("dehin_malformed.json", []byte("{\"entities\": [ truncated\n"))
	write("dehin_badtype.json", []byte(`{"target":0,"entities":[{"type":"Robot","attrs":[1,2,3,4]}]}`+"\n"))
}

// snippet is the wire shape of a /v1/dehin request (mirrors the serve
// package's request types, spelled out here so the fixture writer does
// not reach into internal/serve).
type snippet struct {
	Target   int             `json:"target"`
	Entities []snippetEntity `json:"entities"`
	Links    []snippetLink   `json:"links,omitempty"`
}

type snippetEntity struct {
	Type  string  `json:"type"`
	Attrs []int64 `json:"attrs"`
}

type snippetLink struct {
	Type     string `json:"type"`
	From     int    `json:"from"`
	To       int    `json:"to"`
	Strength int32  `json:"strength,omitempty"`
}

func snippetFromUser(g *hin.Graph, u hin.EntityID) snippet {
	schema := g.Schema()
	req := snippet{Target: 0}
	ids := map[hin.EntityID]int{}
	addEntity := func(v hin.EntityID) int {
		if i, ok := ids[v]; ok {
			return i
		}
		i := len(req.Entities)
		ids[v] = i
		req.Entities = append(req.Entities, snippetEntity{
			Type:  schema.EntityType(g.EntityType(v)).Name,
			Attrs: g.Attrs(v),
		})
		return i
	}
	addEntity(u)
	for lt := 0; lt < schema.NumLinkTypes(); lt++ {
		tos, ws := g.OutEdges(hin.LinkTypeID(lt), u)
		for i, to := range tos {
			j := addEntity(to)
			req.Links = append(req.Links, snippetLink{
				Type: schema.LinkType(hin.LinkTypeID(lt)).Name,
				From: 0, To: j, Strength: ws[i],
			})
		}
	}
	return req
}

func oversizedSnippet(n int) snippet {
	s := snippet{}
	for i := 0; i < n; i++ {
		s.Entities = append(s.Entities, snippetEntity{Type: "User", Attrs: []int64{1980, 0, 1, 1}})
	}
	return s
}

// diffHint locates the first divergence for the failure message.
func diffHint(got, want string) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			hi := i + 80
			if hi > len(got) {
				hi = len(got)
			}
			return fmt.Sprintf("first divergence at byte %d:\n...%s...", i, got[lo:hi])
		}
	}
	return fmt.Sprintf("length mismatch: got %d bytes, want %d", len(got), len(want))
}

// TestObservabilityFlags boots the daemon with the full opt-in
// observability surface — flight recorder at a 1ns threshold, runtime
// metrics at the floor interval — and checks the wiring end to end:
// captured requests on /debug/requests, runtime families on /metrics,
// and a SIGQUIT flight dump on stderr while the daemon keeps serving.
func TestObservabilityFlags(t *testing.T) {
	graphPath, _ := writeFixtureGraph(t)
	cmd := exec.Command(os.Args[0],
		"-graph", graphPath, "-addr", "127.0.0.1:0",
		"-flight", "8", "-flight-slow", "1ns", "-runtime-metrics", "100ms")
	cmd.Env = append(os.Environ(), "HINRISKD_RUN_MAIN=1")
	var stderr syncBuffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon exit: %v\nstderr:\n%s", err, stderr.String())
			}
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			t.Error("daemon did not exit on SIGTERM")
		}
	}()
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no announcement\nstderr:\n%s", stderr.String())
	}
	base, ok := strings.CutPrefix(sc.Text(), "listening ")
	if !ok {
		t.Fatalf("unexpected announcement %q", sc.Text())
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	// Every 200 is "slow" at 1ns, so the very first request is captured.
	if code, _ := get("/v1/risk?user=17"); code != 200 {
		t.Fatalf("risk = %d", code)
	}
	if code, _ := get("/v1/risk?user=99999"); code != 404 {
		t.Fatalf("unknown user = %d", code)
	}
	code, body := get("/debug/requests?format=json")
	if code != 200 {
		t.Fatalf("debug/requests = %d: %s", code, body)
	}
	var env struct {
		Captured int64 `json:"captured"`
		Total    int64 `json:"total"`
		Records  []struct {
			Path   string `json:"path"`
			Reason string `json:"reason"`
		} `json:"records"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if env.Captured < 2 || env.Total < 2 || len(env.Records) < 2 {
		t.Fatalf("envelope = %+v", env)
	}

	// Runtime metric families appear on /metrics after the first tick.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, metrics := get("/metrics")
		if strings.Contains(metrics, "# TYPE runtime_goroutines gauge") &&
			strings.Contains(metrics, "# TYPE runtime_heap_live_bytes gauge") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("runtime families never appeared on /metrics:\n%s", metrics)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// SIGQUIT dumps the retained requests to stderr and keeps serving.
	cmd.Process.Signal(syscall.SIGQUIT)
	deadline = time.Now().Add(5 * time.Second)
	for !strings.Contains(stderr.String(), "flight recorder:") {
		if time.Now().After(deadline) {
			t.Fatalf("no flight dump after SIGQUIT\nstderr:\n%s", stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if code, _ := get("/v1/risk?user=17"); code != 200 {
		t.Fatalf("daemon stopped serving after SIGQUIT: %d", code)
	}
}
