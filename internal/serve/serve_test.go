package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/risk"
	"github.com/hinpriv/dehin/internal/tqq"
)

// testConfig is the t.qq-shaped server configuration the tests serve:
// numtags-seeded signatures (the paper's Section 6.1 choice) at distances
// 0..2, profile matching per TQQProfile.
func testConfig() Config {
	return Config{
		MaxDistance:    2,
		EntityAttrs:    []int{tqq.AttrNumTags},
		Profile:        dehin.TQQProfile(),
		AttackDistance: 1,
		Metrics:        obs.New(),
	}
}

func allLinkTypes(s *hin.Schema) []hin.LinkTypeID {
	lts := make([]hin.LinkTypeID, s.NumLinkTypes())
	for i := range lts {
		lts[i] = hin.LinkTypeID(i)
	}
	return lts
}

func testGraph(t *testing.T, users int, seed uint64) *hin.Graph {
	t.Helper()
	ds, err := tqq.Generate(tqq.DefaultConfig(users, seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds.Graph
}

func getJSON(t *testing.T, ts *testServer, path string, want int, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("GET %s = %d, want %d: %s", path, resp.StatusCode, want, body)
	}
	requireIdle(t, ts.s)
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", path, body, err)
		}
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func postJSON(t *testing.T, ts *testServer, path string, reqBody any, want int, out any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(mustMarshal(t, reqBody)))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("POST %s = %d, want %d: %s", path, resp.StatusCode, want, body)
	}
	requireIdle(t, ts.s)
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", path, body, err)
		}
	}
}

func TestEndpointsAgainstLibrary(t *testing.T) {
	g := testGraph(t, 600, 7)
	cfg := testConfig()
	s := New(cfg)
	if err := s.LoadBackend(g); err != nil {
		t.Fatal(err)
	}
	defer closeIdle(t, s)
	ts := newTestServer(s)
	defer ts.Close()

	// Snapshot info reflects the loaded graph and epoch 1.
	var info snapshotResponse
	getJSON(t, ts, "/v1/snapshot", 200, &info)
	if info.Epoch != 1 || info.Users != g.NumEntities() || info.Edges != g.NumEdgesTotal() {
		t.Fatalf("snapshot info = %+v", info)
	}
	if len(info.DatasetRisk) != cfg.MaxDistance+1 {
		t.Fatalf("dataset risk has %d entries, want %d", len(info.DatasetRisk), cfg.MaxDistance+1)
	}

	// /v1/risk must agree with standalone library sweeps at every distance
	// (the server's empty LinkTypes config means "all link types").
	for d := 0; d <= cfg.MaxDistance; d++ {
		sigs, err := risk.Signatures(g, risk.SignatureConfig{
			MaxDistance: d, LinkTypes: allLinkTypes(g.Schema()), EntityAttrs: cfg.EntityAttrs,
		})
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[uint64]int32)
		for _, sg := range sigs {
			counts[sg]++
		}
		for _, user := range []int{0, 17, 599} {
			var rr riskResponse
			getJSON(t, ts, fmt.Sprintf("/v1/risk?user=%d&distance=%d", user, d), 200, &rr)
			wantK := counts[sigs[user]]
			if rr.ClassSize != wantK || rr.Risk != 1/float64(wantK) || rr.Epoch != 1 {
				t.Fatalf("risk(%d, %d) = %+v, want class %d", user, d, rr, wantK)
			}
			if rr.Label != g.Label(hin.EntityID(user)) {
				t.Fatalf("risk label = %q", rr.Label)
			}
		}
	}

	// Top-k is sorted by ascending class size with ids breaking ties.
	var tk topkResponse
	getJSON(t, ts, "/v1/topk?k=25&distance=2", 200, &tk)
	if tk.K != 25 || len(tk.Users) != 25 {
		t.Fatalf("topk = %+v", tk)
	}
	for i := 1; i < len(tk.Users); i++ {
		a, b := tk.Users[i-1], tk.Users[i]
		if a.ClassSize > b.ClassSize || (a.ClassSize == b.ClassSize && a.User >= b.User) {
			t.Fatalf("topk order violated at %d: %+v then %+v", i, a, b)
		}
	}

	// Error surface: missing/malformed params, unknown users, oversized k.
	var er errResponse
	getJSON(t, ts, "/v1/risk", 400, &er)
	if er.Epoch != 1 || er.Error == "" {
		t.Fatalf("missing user error = %+v", er)
	}
	getJSON(t, ts, "/v1/risk?user=abc", 400, nil)
	getJSON(t, ts, "/v1/risk?user=5&distance=9", 400, nil)
	getJSON(t, ts, "/v1/risk?user=600000", 404, &er)
	if er.Epoch != 1 {
		t.Fatalf("unknown-user error must carry the epoch: %+v", er)
	}
	getJSON(t, ts, "/v1/topk?k=100000", 413, nil)
	getJSON(t, ts, "/v1/topk?k=0", 400, nil)

	// /v1/dehin answers exactly what the library's attack answers.
	attack, err := dehin.NewAttack(g, dehin.Config{
		MaxDistance: cfg.AttackDistance, Profile: cfg.Profile, UseIndex: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	snip := snippetFromUser(g, 42)
	want := attack.Deanonymize(mustBuildSnippet(t, g.Schema(), snip), hin.EntityID(snip.Target))
	var dr dehinResponse
	postJSON(t, ts, "/v1/dehin", snip, 200, &dr)
	if dr.Candidates != len(want) || len(dr.Matches) != len(want) {
		t.Fatalf("dehin candidates = %d, want %d", dr.Candidates, len(want))
	}
	for i, m := range dr.Matches {
		if m.User != int32(want[i]) {
			t.Fatalf("dehin match %d = %d, want %d", i, m.User, want[i])
		}
	}
	if dr.Unique != (len(want) == 1) {
		t.Fatalf("unique = %v with %d candidates", dr.Unique, len(want))
	}

	// Malformed snippet bodies.
	if status, _ := rawRequest(t, ts, "POST", "/v1/dehin", []byte("{nope")); status != 400 {
		t.Fatalf("malformed dehin body = %d", status)
	}
	postJSON(t, ts, "/v1/dehin", dehinRequest{}, 400, nil)
	postJSON(t, ts, "/v1/dehin", dehinRequest{
		Entities: []dehinEntity{{Type: "nosuch", Attrs: nil}},
	}, 400, nil)
	postJSON(t, ts, "/v1/dehin", dehinRequest{
		Target:   5,
		Entities: []dehinEntity{{Type: "User", Attrs: []int64{1980, 0, 1, 1}}},
	}, 400, nil)
}

// snippetFromUser builds the attacker's view of one user: its profile and
// out-neighborhood, labels stripped. The target risk answers then depend
// only on structure, as in the paper's threat model.
func snippetFromUser(g *hin.Graph, u hin.EntityID) dehinRequest {
	schema := g.Schema()
	req := dehinRequest{Target: 0}
	ids := map[hin.EntityID]int{}
	addEntity := func(v hin.EntityID) int {
		if i, ok := ids[v]; ok {
			return i
		}
		i := len(req.Entities)
		ids[v] = i
		req.Entities = append(req.Entities, dehinEntity{
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
			req.Links = append(req.Links, dehinLink{
				Type: schema.LinkType(hin.LinkTypeID(lt)).Name,
				From: 0, To: j, Strength: ws[i],
			})
		}
	}
	return req
}

func mustBuildSnippet(t *testing.T, schema *hin.Schema, req dehinRequest) *hin.Graph {
	t.Helper()
	g, err := buildSnippet(schema, &req)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReloadSwapsEpochAndRetiresFile(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "g1.hincsr")
	p2 := filepath.Join(dir, "g2.hincsr")
	if err := hin.WriteCSRFile(p1, testGraph(t, 300, 1)); err != nil {
		t.Fatal(err)
	}
	if err := hin.WriteCSRFile(p2, testGraph(t, 400, 2)); err != nil {
		t.Fatal(err)
	}

	s := New(testConfig())
	if err := s.Load(p1); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(s)
	defer ts.Close()

	var info snapshotResponse
	getJSON(t, ts, "/v1/snapshot", 200, &info)
	if info.Epoch != 1 || info.Users != 300 || info.Source != p1 {
		t.Fatalf("epoch 1 info = %+v", info)
	}

	// A reader holding epoch 1 across the reload keeps a usable graph.
	sn, err := s.acquire()
	if err != nil {
		t.Fatal(err)
	}

	postJSON(t, ts, "/v1/reload", reloadRequest{Source: p2}, 200, &info)
	if info.Epoch != 2 || info.Users != 400 || info.Source != p2 {
		t.Fatalf("epoch 2 info = %+v", info)
	}
	if got := s.Epoch(); got != 2 {
		t.Fatalf("Epoch() = %d", got)
	}

	// The retired epoch's mmap must still be readable while held.
	if sn.g.NumEntities() != 300 || sn.g.Label(7) == "" {
		t.Fatal("retired snapshot unreadable while referenced")
	}
	s.release(sn)

	// An empty source re-opens the current file.
	postJSON(t, ts, "/v1/reload", reloadRequest{}, 200, &info)
	if info.Epoch != 3 || info.Source != p2 {
		t.Fatalf("empty-source reload info = %+v", info)
	}

	// Close drains every epoch and closes every retired file; afterwards
	// requests answer 503 and further loads fail.
	closeIdle(t, s)
	getJSON(t, ts, "/v1/risk?user=1", 503, nil)
	if err := s.Load(p1); err == nil {
		t.Fatal("Load after Close succeeded")
	}
}

// TestFailedReloadKeepsServing pins SERVICE.md's promise for a failed
// load: the reload call answers 500 with a JSON error, the current
// snapshot keeps serving byte-identical answers, serve_reload_errors_total
// ticks once per failure, and serve_reloads_total and the epoch stay put.
func TestFailedReloadKeepsServing(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.hincsr")
	if err := hin.WriteCSRFile(good, testGraph(t, 300, 4)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.hincsr")
	if err := os.WriteFile(truncated, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// One flipped body byte keeps the header valid but breaks the
	// CRC-32C over everything after it.
	corrupt := bytes.Clone(data)
	corrupt[len(corrupt)/2] ^= 1
	flipped := filepath.Join(dir, "flipped.hincsr")
	if err := os.WriteFile(flipped, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	s := New(cfg)
	if err := s.Load(good); err != nil {
		t.Fatal(err)
	}
	defer closeIdle(t, s)
	ts := newTestServer(s)
	defer ts.Close()

	answers := func() []string {
		t.Helper()
		var out []string
		for _, path := range []string{
			"/v1/risk?user=0&distance=1", "/v1/risk?user=17&distance=2",
			"/v1/risk?user=299&distance=0", "/v1/snapshot",
		} {
			status, body := rawRequest(t, ts, "GET", path, nil)
			if status != 200 {
				t.Fatalf("GET %s = %d: %s", path, status, body)
			}
			out = append(out, string(body))
		}
		return out
	}
	before := answers()
	epoch := s.Epoch()
	reloads := cfg.Metrics.Counter("serve_reloads_total")
	reloadErrs := cfg.Metrics.Counter("serve_reload_errors_total")
	okReloads := reloads.Value()

	for _, c := range []struct{ name, path, want string }{
		{"missing", filepath.Join(dir, "missing.hincsr"), "no such file"},
		{"truncated", truncated, "truncated"},
		{"flipped", flipped, "checksum mismatch"},
	} {
		errs := reloadErrs.Value()
		var e errResponse
		postJSON(t, ts, "/v1/reload", reloadRequest{Source: c.path}, 500, &e)
		if !strings.Contains(e.Error, c.want) || e.Epoch != epoch {
			t.Fatalf("%s: error response %+v, want %q at epoch %d", c.name, e, c.want, epoch)
		}
		if got := reloadErrs.Value(); got != errs+1 {
			t.Fatalf("%s: serve_reload_errors_total %d -> %d, want +1", c.name, errs, got)
		}
		if got := reloads.Value(); got != okReloads {
			t.Fatalf("%s: serve_reloads_total moved %d -> %d", c.name, okReloads, got)
		}
		if got := s.Epoch(); got != epoch {
			t.Fatalf("%s: epoch moved %d -> %d", c.name, epoch, got)
		}
		if got := answers(); !slices.Equal(got, before) {
			t.Fatalf("%s: answers changed after a failed reload:\n%q\nwant\n%q", c.name, got, before)
		}
	}

	// A failed load uses up an epoch number, so the good reload's epoch
	// is larger but not necessarily epoch+1.
	var info snapshotResponse
	postJSON(t, ts, "/v1/reload", reloadRequest{Source: good}, 200, &info)
	if info.Epoch <= epoch || s.Epoch() != info.Epoch {
		t.Fatalf("good reload: info %+v, Epoch() %d, want an epoch above %d", info, s.Epoch(), epoch)
	}
	if got := reloads.Value(); got != okReloads+1 {
		t.Fatalf("good reload: serve_reloads_total %d, want %d", got, okReloads+1)
	}
}

func TestAttackAdmissionRejectsWhenSaturated(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAttackInFlight = 1
	cfg.MaxAttackQueue = -1 // no waiting: reject the moment the slot is taken
	s := New(cfg)
	if err := s.LoadBackend(testGraph(t, 200, 3)); err != nil {
		t.Fatal(err)
	}
	defer closeIdle(t, s)
	ts := newTestServer(s)
	defer ts.Close()

	snip := dehinRequest{Entities: []dehinEntity{{Type: "User", Attrs: []int64{1985, 1, 10, 2}}}}

	// Occupy the single slot directly, then observe the fast 429.
	s.attackSlots <- struct{}{}
	if rec := serveDehin(context.Background(), ts.Config.Handler, mustMarshal(t, snip)); rec.Code != 429 {
		t.Fatalf("dehin with the slot taken = %d: %s", rec.Code, rec.Body)
	}
	if got := s.met.rejected.Value(); got != 1 {
		t.Fatalf("rejected counter = %d", got)
	}
	<-s.attackSlots

	var dr dehinResponse
	postJSON(t, ts, "/v1/dehin", snip, 200, &dr)
	if dr.Epoch != 1 {
		t.Fatalf("dehin epoch = %d", dr.Epoch)
	}
}

// TestAttackAdmissionQueue drives both ends of a wait for an attack slot:
// a queued request whose context is cancelled answers 503, and one that
// is still waiting when the slot frees is admitted and answers 200.
func TestAttackAdmissionQueue(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAttackInFlight = 1
	cfg.MaxAttackQueue = 1
	s := New(cfg)
	if err := s.LoadBackend(testGraph(t, 200, 3)); err != nil {
		t.Fatal(err)
	}
	defer closeIdle(t, s)
	h := s.Handler()
	body := mustMarshal(t, dehinRequest{Entities: []dehinEntity{{Type: "User", Attrs: []int64{1985, 1, 10, 2}}}})

	// waitQueued returns once a request waits for the held slot.
	waitQueued := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); s.queued.Load() != 1; {
			if time.Now().After(deadline) {
				t.Fatal("request never queued for the attack slot")
			}
			time.Sleep(time.Millisecond)
		}
	}
	s.attackSlots <- struct{}{} // hold the only slot
	answered := make(chan *httptest.ResponseRecorder)

	ctx, cancel := context.WithCancel(context.Background())
	go func() { answered <- serveDehin(ctx, h, body) }()
	waitQueued()
	cancel()
	if rec := <-answered; rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled while queued = %d: %s", rec.Code, rec.Body)
	}

	go func() { answered <- serveDehin(context.Background(), h, body) }()
	waitQueued()
	<-s.attackSlots
	if rec := <-answered; rec.Code != http.StatusOK {
		t.Fatalf("admitted from the queue = %d: %s", rec.Code, rec.Body)
	}
	requireIdle(t, s)
	if got := cfg.Metrics.Snapshot().Gauge("serve_attack_queue_depth"); got != 0 {
		t.Fatalf("serve_attack_queue_depth = %d at idle", got)
	}
}

func TestNilServerSurface(t *testing.T) {
	var s *Server
	if err := s.Load("x"); err == nil {
		t.Fatal("nil Load")
	}
	if err := s.LoadBackend(nil); err == nil {
		t.Fatal("nil LoadBackend")
	}
	if err := s.Reload(""); err == nil {
		t.Fatal("nil Reload")
	}
	if s.Epoch() != 0 {
		t.Fatal("nil Epoch")
	}
	if err := s.Close(); err != nil {
		t.Fatal("nil Close must be a no-op")
	}
	s.Register(http.NewServeMux()) // must not panic
	if s.Handler() == nil {
		t.Fatal("nil Handler")
	}
}
