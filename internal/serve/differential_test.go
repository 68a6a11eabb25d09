package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/risk"
	"github.com/hinpriv/dehin/internal/tqq"
)

// The differential graph: 12k t.qq users, large enough that signature
// classes are non-trivial at every distance while the sweep still runs in
// seconds. The sha256 of the serialized CSR file is pinned so the test
// fails loudly if generator or format drift ever changes the input — a
// byte-level comparison against the library is only meaningful when both
// sides provably computed from the same graph.
const (
	diffUsers       = 12000
	diffSeed        = 4
	diffFingerprint = "1a8c53e0655ba5006061ad2de143a913a17b6dabf6884b9f2a600b842e94a2f6"
)

func rawRequest(t *testing.T, ts *testServer, method, path string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	requireIdle(t, ts.s)
	return resp.StatusCode, got
}

// wantBody is the server's exact wire encoding of a response value:
// compact JSON plus the trailing newline writeJSON appends.
func wantBody(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// TestDifferentialAgainstLibrary pins the server to the library on a
// fingerprinted 12k-user graph: every sampled /v1/risk response must be
// byte-identical to the JSON a direct risk.SignatureGrid computation
// predicts, /v1/snapshot's dataset_risk must equal risk.NetworkSweep's
// floats bit-for-bit, and every sampled /v1/dehin answer must match a
// standalone dehin.Attack on the same snippet. The server side runs off
// the mmap CSR backend while the library side runs off the in-memory
// graph, so this doubles as a cross-backend equivalence check.
func TestDifferentialAgainstLibrary(t *testing.T) {
	ds, err := tqq.Generate(tqq.DefaultConfig(diffUsers, diffSeed))
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	path := filepath.Join(t.TempDir(), "diff.hincsr")
	if err := hin.WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fp := hex.EncodeToString(sumSHA256(raw)); fp != diffFingerprint {
		t.Fatalf("differential graph fingerprint changed: %s (update diffFingerprint if the generator or CSR format intentionally changed)", fp)
	}

	cfg := testConfig()
	s := New(cfg)
	if err := s.Load(path); err != nil {
		t.Fatal(err)
	}
	defer closeIdle(t, s)
	ts := newTestServer(s)
	defer ts.Close()

	lts := allLinkTypes(g.Schema())
	libCfg := risk.SignatureConfig{
		MaxDistance: cfg.MaxDistance,
		LinkTypes:   lts,
		EntityAttrs: cfg.EntityAttrs,
	}

	// Dataset risk: /v1/snapshot must carry NetworkSweep's floats exactly.
	sweep, err := risk.NetworkSweep(g, libCfg)
	if err != nil {
		t.Fatal(err)
	}
	var info snapshotResponse
	getJSON(t, ts, "/v1/snapshot", 200, &info)
	if len(info.DatasetRisk) != len(sweep.Risk) {
		t.Fatalf("dataset_risk has %d entries, want %d", len(info.DatasetRisk), len(sweep.Risk))
	}
	for d, want := range sweep.Risk {
		if info.DatasetRisk[d] != want {
			t.Fatalf("dataset_risk[%d] = %v, library NetworkSweep says %v", d, info.DatasetRisk[d], want)
		}
	}

	// Per-user risk: the server precomputes class sizes from
	// risk.SignatureGrid; recompute them independently here and demand the
	// full response body byte-matches at every distance for a spread of
	// users (stride chosen coprime to diffUsers so the sample wraps the
	// whole id space).
	grid, err := risk.SignatureGrid(g, libCfg)
	if err != nil {
		t.Fatal(err)
	}
	for d, sigs := range grid {
		counts := make(map[uint64]int32, len(sigs))
		for _, sg := range sigs {
			counts[sg]++
		}
		for i := 0; i < 40; i++ {
			u := (i * 997) % diffUsers
			k := counts[sigs[u]]
			want := wantBody(t, riskResponse{
				Epoch:     1,
				User:      int32(u),
				Label:     g.Label(hin.EntityID(u)),
				Distance:  d,
				ClassSize: k,
				Risk:      1 / float64(k),
			})
			status, got := rawRequest(t, ts, "GET",
				fmt.Sprintf("/v1/risk?user=%d&distance=%d", u, d), nil)
			if status != 200 || !bytes.Equal(got, want) {
				t.Fatalf("risk(user=%d, d=%d) = %d %q, library predicts %q", u, d, status, got, want)
			}
		}
	}

	// DeHIN: the server's candidate lists must match a standalone library
	// attack with the snapshot's exact configuration, snippet for snippet.
	attack, err := dehin.NewAttack(g, dehin.Config{
		MaxDistance: cfg.AttackDistance,
		LinkTypes:   lts,
		Profile:     cfg.Profile,
		UseIndex:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		u := hin.EntityID((i*577 + 13) % diffUsers)
		req := snippetFromUser(g, u)
		cands := attack.Deanonymize(mustBuildSnippet(t, g.Schema(), req), 0)
		resp := dehinResponse{
			Epoch:      1,
			Candidates: len(cands),
			Unique:     len(cands) == 1,
		}
		if len(cands) > s.cfg.MaxCandidates {
			cands = cands[:s.cfg.MaxCandidates]
			resp.Truncated = true
		}
		resp.Matches = make([]dehinMatch, len(cands))
		for j, v := range cands {
			resp.Matches[j] = dehinMatch{User: int32(v), Label: g.Label(v)}
		}
		want := wantBody(t, resp)
		status, got := rawRequest(t, ts, "POST", "/v1/dehin", mustMarshal(t, req))
		if status != 200 || !bytes.Equal(got, want) {
			t.Fatalf("dehin(user=%d) = %d %q, library predicts %q", u, status, got, want)
		}
	}
}

func sumSHA256(b []byte) []byte {
	h := sha256.Sum256(b)
	return h[:]
}
