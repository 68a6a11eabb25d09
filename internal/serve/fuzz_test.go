package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/tqq"
)

// FuzzServeDehin posts arbitrary bodies to /v1/dehin on a small served
// graph. Every request must answer valid JSON with a status in {200, 400,
// 413, 429, 503} and never panic; a 200 must also report a candidate list
// consistent with its counts and the MaxCandidates cap. The server must be
// idle before and after every input: a snapshot reference or attack slot
// that one input leaks fails that input, or at the latest the next one,
// before a run of leaked slots can block admission forever.
func FuzzServeDehin(f *testing.F) {
	ds, err := tqq.Generate(tqq.DefaultConfig(300, 2))
	if err != nil {
		f.Fatal(err)
	}
	g := ds.Graph
	cfg := testConfig()
	// A small cap, so common profiles exercise truncation.
	cfg.MaxCandidates = 3
	s := New(cfg)
	if err := s.LoadBackend(g); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { closeIdle(f, s) })
	h := s.Handler()

	seeds := []dehinRequest{
		{},
		{Entities: []dehinEntity{{Type: "nosuch", Attrs: nil}}},
		{Target: 5, Entities: []dehinEntity{{Type: "User", Attrs: []int64{1980, 0, 1, 1}}}},
		{Entities: []dehinEntity{{Type: "User", Attrs: []int64{1985, 1, 10, 2}}}},
	}
	for _, u := range []hin.EntityID{0, 7, 42, 150} {
		seeds = append(seeds, snippetFromUser(g, u))
	}
	for _, req := range seeds {
		f.Add(mustMarshal(f, req))
	}
	f.Add([]byte("{nope"))
	lim := cfg.withDefaults()
	for _, body := range dehinSeeds(f, lim.MaxSnippetEntities, lim.MaxSnippetEdges) {
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		requireIdle(t, s)
		rec := serveDehin(context.Background(), h, body)
		requireIdle(t, s)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d: invalid JSON %q", rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var resp dehinResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Matches) != min(resp.Candidates, cfg.MaxCandidates) ||
			resp.Truncated != (resp.Candidates > cfg.MaxCandidates) ||
			resp.Unique != (resp.Candidates == 1) {
			t.Fatalf("inconsistent answer: %d candidates, %d matches, truncated %v, unique %v",
				resp.Candidates, len(resp.Matches), resp.Truncated, resp.Unique)
		}
	})
}
