package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
)

// conformanceFixtures are hinriskd's /v1/dehin conformance bodies: three
// well-formed ones (one pretty-printed, one with its keys out of struct
// order) and a malformed one.
var conformanceFixtures = []string{"dehin_happy.json", "dehin_profile_only.json", "dehin_badtype.json", "dehin_malformed.json"}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("..", "..", "cmd", "hinriskd", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// repeatJSON joins n copies of elem as the members of a JSON array.
func repeatJSON(elem string, n int) string {
	return "[" + strings.TrimSuffix(strings.Repeat(elem+",", n), ",") + "]"
}

// dehinSeeds are the seed bodies of FuzzDecodeDehin and FuzzServeDehin:
// the conformance fixtures, and every shape on which decodeDehin must
// either agree with encoding/json or hand the body over to it. The
// over-limit bodies have one entity and one link more than maxEntities
// and maxLinks.
func dehinSeeds(t testing.TB, maxEntities, maxLinks int) [][]byte {
	t.Helper()
	var seeds [][]byte
	for _, name := range conformanceFixtures {
		seeds = append(seeds, readFixture(t, name))
	}
	user := `{"type":"User","attrs":[1980,1,3,4]}`
	for _, s := range []string{
		// Labels and sets, which no in-repo client sends.
		`{"target":0,"entities":[{"type":"User","label":"alice","attrs":[1980,1,3,4],"sets":{"tags":[3,1,2],"none":[]}}]}`,
		// Keys that match a field only through an escape or case folding,
		// ASCII or Unicode (U+017F folds to s, U+212A to k), raw or escaped.
		`{"target":0,"entities":[{"\u0074ype":"User","attrs":[1980,1,3,4]}]}`,
		`{"\u0074arget":0,"entities":[` + user + `]}`,
		`{"target":0,"Entities":[{"TYPE":"User","Attrs":[1980,1,3,4]}],"LINKS":[]}`,
		`{"target":0,"entities":[{"type":"User","attrs":[1980,1,3,4],"\u017Fets":{"tags":[1]}}]}`,
		`{"target":0,"entities":[{"type":"User","attrs":[1980,1,3,4],"ſets":{"tags":[1]}}]}`,
		`{"target":0,"entities":[` + user + `,` + user + `],"lin\u212As":[{"type":"follow","from":0,"to":1}]}`,
		`{"target":0,"entities":[` + user + `,` + user + `],"linKs":[{"type":"follow","from":0,"to":1}]}`,
		// Unknown keys, which encoding/json steps over.
		`{"target":0,"extra":{"a":[1,2.5e-3,"x\n\u00e9",true,false,null,{}]},"entities":[{"type":"User","note":"hi","attrs":[1980,1,3,4]}]}`,
		// Duplicate keys at each level.
		`{"target":0,"target":1,"entities":[` + user + `,` + user + `]}`,
		`{"target":0,"entities":[` + user + `],"entities":[{"attrs":[1,2]}]}`,
		`{"target":0,"entities":[{"type":"User","type":"Robot","attrs":[1980,1,3,4]}]}`,
		`{"target":0,"entities":[{"type":"User","attrs":[1980,1,3,4],"sets":{"tags":[1],"tags":[2]}}]}`,
		`{"target":0,"entities":[` + user + `,` + user + `],"links":[{"type":"follow","from":0,"from":1,"to":1}]}`,
		// null at each level.
		`null`,
		`{"target":null,"entities":null,"links":null}`,
		`{"target":0,"entities":[null,` + user + `],"links":[null]}`,
		`{"target":0,"entities":[{"type":null,"label":null,"attrs":null,"sets":null}]}`,
		`{"target":0,"entities":[{"type":"User","attrs":[1980,null,3,4],"sets":{"tags":null}}]}`,
		`{"target":0,"entities":[` + user + `,` + user + `],"links":[{"type":null,"from":null,"to":1,"strength":null}]}`,
		// Numbers: only in-range integer literals decode into the fields.
		`{"target":-0,"entities":[{"type":"User","attrs":[-0,1,3,4]}]}`,
		`{"target":0,"entities":[{"type":"User","attrs":[1.0,1,3,4]}]}`,
		`{"target":0,"entities":[{"type":"User","attrs":[1e2,1,3,4]}]}`,
		`{"target":1e2,"entities":[` + user + `]}`,
		`{"target":0,"entities":[` + user + `,` + user + `],"links":[{"type":"follow","from":0,"to":1,"strength":2147483648}]}`,
		`{"target":9223372036854775808,"entities":[` + user + `]}`,
		`{"target":-9223372036854775808,"entities":[` + user + `]}`,
		// Bytes after the object, an empty and a whitespace-only body.
		`{"target":0,"entities":[` + user + `]}garbage`,
		`{"target":0,"entities":[` + user + `]} {"target":1}`,
		``,
		" \t\r\n",
		// Over the entity limit, then over it with a syntax error after
		// the limit, and over both limits with links first.
		`{"target":0,"entities":` + repeatJSON(user, maxEntities+1) + `}`,
		`{"target":0,"entities":` + repeatJSON(user, maxEntities+1) + `,"links":[{"type":"follow","from":0,"to":1,}]}`,
		`{"links":` + repeatJSON(`{"type":"follow","from":0,"to":1}`, maxLinks+1) + `,"target":0,"entities":` + repeatJSON(user, maxEntities+1) + `}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// The limits FuzzDecodeDehin decodes under besides unlimited ones: small,
// so that mutated bodies cross them.
const fuzzMaxEntities, fuzzMaxLinks = 3, 4

// FuzzDecodeDehin holds decodeDehin to encoding/json. Whenever the pass
// takes a body, encoding/json's Decoder must decode the same bytes without
// error into a request equal to the pass's: exactly, nil and empty slices
// and maps told apart. Under limits the pass stores only the first
// entities and links, so the comparison takes that prefix of encoding/json's
// request; the counts must equal encoding/json's lengths either way.
func FuzzDecodeDehin(f *testing.F) {
	for _, s := range dehinSeeds(f, fuzzMaxEntities, fuzzMaxLinks) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want dehinRequest
		werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		for _, lim := range [...][2]int{{fuzzMaxEntities, fuzzMaxLinks}, {math.MaxInt, math.MaxInt}} {
			got, entities, links, ok := decodeDehin(body, lim[0], lim[1])
			if !ok {
				continue
			}
			if werr != nil {
				t.Fatalf("decodeDehin took %q, which encoding/json refuses: %v", body, werr)
			}
			if entities != len(want.Entities) || links != len(want.Links) {
				t.Fatalf("decodeDehin(%q) counted %d entities and %d links, encoding/json %d and %d",
					body, entities, links, len(want.Entities), len(want.Links))
			}
			stored := want
			stored.Entities = want.Entities[:min(len(want.Entities), lim[0])]
			stored.Links = want.Links[:min(len(want.Links), lim[1])]
			if !reflect.DeepEqual(got, stored) {
				t.Fatalf("decodeDehin(%q) under limits %v:\n got %#v\nwant %#v", body, lim, got, stored)
			}
		}
	})
}

// requireDecodedAsJSON fails unless decodeDehin takes body, unlimited,
// and agrees with encoding/json on it.
func requireDecodedAsJSON(t *testing.T, name string, body []byte) {
	t.Helper()
	got, entities, links, ok := decodeDehin(body, math.MaxInt, math.MaxInt)
	if !ok {
		t.Fatalf("%s: decodeDehin did not take %s", name, body)
	}
	var want dehinRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) || entities != len(want.Entities) || links != len(want.Links) {
		t.Fatalf("%s: decodeDehin = %#v (%d entities, %d links), want %#v", name, got, entities, links, want)
	}
}

// TestDecodeDehinTakesMarshalledSnippets checks that the shape every
// in-repo client sends takes the pass, not the fallback: json.Marshal
// output of snippets cut from a generated graph (perfbench posts the
// same), the well-formed conformance fixtures, and hinload's
// profile-only snippet, whose keys json.Marshal sorts.
func TestDecodeDehinTakesMarshalledSnippets(t *testing.T) {
	g := testGraph(t, 300, 2)
	for u := 0; u < g.NumEntities(); u++ {
		requireDecodedAsJSON(t, fmt.Sprintf("user %d", u), mustMarshal(t, snippetFromUser(g, hin.EntityID(u))))
	}
	for _, name := range conformanceFixtures[:3] {
		requireDecodedAsJSON(t, name, readFixture(t, name))
	}
	if _, _, _, ok := decodeDehin(readFixture(t, "dehin_malformed.json"), math.MaxInt, math.MaxInt); ok {
		t.Fatal("decodeDehin took dehin_malformed.json")
	}
	requireDecodedAsJSON(t, "hinload", mustMarshal(t, map[string]any{
		"target":   0,
		"entities": []map[string]any{{"type": "User", "attrs": []int64{1980, 1, 37, 4}}},
	}))
}

// TestReadDehinConcurrent decodes snippets on several goroutines at once,
// so that the race detector sees pooled body buffers and decoders pass
// between requests; every answer must equal encoding/json's.
func TestReadDehinConcurrent(t *testing.T) {
	g := testGraph(t, 300, 2)
	var bodies [][]byte
	for u := 0; u < 40; u++ {
		bodies = append(bodies, mustMarshal(t, snippetFromUser(g, hin.EntityID(u))))
	}
	const workers = 4
	errs := make(chan error, workers) // each worker sends at most once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				body := bodies[(i*7+w)%len(bodies)]
				got, _, _, err := readDehin(bytes.NewReader(body), 256, 1024)
				var want dehinRequest
				if jerr := json.Unmarshal(body, &want); err != nil || jerr != nil || !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("worker %d, body %s: got %#v (%v), want %#v (%v)", w, body, got, err, want, jerr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// medianSnippet is the marshalled snippet of the user of a generated graph
// whose snippet is nearest 56 entities, the median of the ego-nets
// perfbench's serve_mixed posts.
func medianSnippet(tb testing.TB) []byte {
	tb.Helper()
	g, err := benchGraph(2000, 17)
	if err != nil {
		tb.Fatal(err)
	}
	best := dehinRequest{}
	for u := 0; u < g.NumEntities(); u++ {
		req := snippetFromUser(g, hin.EntityID(u))
		if abs(len(req.Entities)-56) < abs(len(best.Entities)-56) {
			best = req
		}
	}
	return mustMarshal(tb, best)
}

func abs(x int) int { return max(x, -x) }

// TestDecodeDehinAllocs bounds what the handler's decode step allocates
// for a median-size snippet. It also decodes the snippet on a decoder
// that has just decoded more distinct type names than a decoder interns:
// what one request interns must not stay in the decoder and crowd out the
// next request's names. encoding/json's Decoder took 357 allocations for
// such a body.
func TestDecodeDehinAllocs(t *testing.T) {
	body := medianSnippet(t)
	if _, _, _, ok := decodeDehin(body, 256, 1024); !ok {
		t.Fatal("decodeDehin did not take the snippet")
	}
	var junk []string
	for i := 0; i < 2*maxInterned; i++ {
		junk = append(junk, fmt.Sprintf(`{"type":"junk%d"}`, i))
	}
	var d dehinDecoder
	if _, _, _, ok := d.decode([]byte(`{"target":0,"entities":[`+strings.Join(junk, ",")+`]}`), 256, 1024); !ok {
		t.Fatal("decodeDehin did not take the junk type names")
	}
	for _, c := range []struct {
		name   string
		allocs float64
	}{
		{"through readDehin", testing.AllocsPerRun(100, func() {
			if _, _, _, err := readDehin(bytes.NewReader(body), 256, 1024); err != nil {
				t.Fatal(err)
			}
		})},
		{"after junk type names", testing.AllocsPerRun(100, func() { d.decode(body, 256, 1024) })},
	} {
		if c.allocs > 16 {
			t.Fatalf("decoding a %d-byte snippet %s allocates %.0f times, want at most 16", len(body), c.name, c.allocs)
		}
	}
}

// stallBody is a request body that hands over a prefix and then fails, as
// the body of a client that stops sending does. It records the size of
// the first buffer it is asked to fill.
type stallBody struct {
	prefix   []byte
	firstLen int
}

func (b *stallBody) Read(p []byte) (int, error) {
	if b.firstLen == 0 {
		b.firstLen = len(p)
	}
	if len(b.prefix) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, b.prefix)
	b.prefix = b.prefix[n:]
	return n, nil
}

// TestDehinBodyBufferGrowsAsBytesArrive posts a body that declares 1 MiB
// and sends a few bytes. The handler must not size its buffer from the
// declared length: a client that declares 1 MiB and stalls would hold
// 1 MiB of the server's memory without sending it.
func TestDehinBodyBufferGrowsAsBytesArrive(t *testing.T) {
	s := New(testConfig())
	if err := s.LoadBackend(testGraph(t, 200, 3)); err != nil {
		t.Fatal(err)
	}
	defer closeIdle(t, s)
	body := &stallBody{prefix: []byte(`{"target":0,"entities":[`)}
	req := httptest.NewRequest(http.MethodPost, "/v1/dehin", body)
	req.ContentLength = maxBodyBytes
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unexpected EOF") {
		t.Fatalf("cut-off body = %d %s, want 400 unexpected EOF", rec.Code, rec.Body)
	}
	if body.firstLen > maxPooledBody {
		t.Fatalf("first read of a body declaring %d bytes fills a %d-byte buffer, want at most %d",
			req.ContentLength, body.firstLen, maxPooledBody)
	}
}

// allocBytes is the heap bytes one call of f allocates, averaged over
// ten calls.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / 10
}

// TestDecodeDehinOverLimitBounded checks that entities and links past the
// limits are counted, not stored: decoding 5,000 entities and 15,000
// links (0.74 MB) allocates about what decoding one entity and one link
// past the default limits does. Storing the 18,720 extra ones would add
// about 0.9 MB; the 128 KB slack covers a pooled decoder that the pool
// dropped (it drops some on purpose under the race detector).
// encoding/json allocated 6.9 MB for such a body before the handler
// refused it.
func TestDecodeDehinOverLimitBounded(t *testing.T) {
	user := `{"type":"User","attrs":[1980,1,3,4]}`
	link := `{"type":"follow","from":1,"to":4999}`
	body := func(entities, links int) []byte {
		return []byte(`{"target":0,"entities":` + repeatJSON(user, entities) + `,"links":` + repeatJSON(link, links) + `}`)
	}
	small, big := body(257, 1025), body(5000, 15000)
	var alloc [2]uint64
	for i, b := range [][]byte{small, big} {
		_, entities, links, ok := decodeDehin(b, 256, 1024)
		if !ok || entities <= 256 || links <= 1024 {
			t.Fatalf("decodeDehin(%d bytes) = %d entities, %d links, ok %v", len(b), entities, links, ok)
		}
		alloc[i] = allocBytes(func() { decodeDehin(b, 256, 1024) })
	}
	if alloc[1] > alloc[0]+128<<10 {
		t.Fatalf("decoding %d bytes allocates %d B, %d bytes %d B: storage grows past the limits",
			len(big), alloc[1], len(small), alloc[0])
	}
}

// BenchmarkServeDehinDecode is /v1/dehin's decode step alone, cycling
// through the snippets of every user of a generated 2,000-user graph
// that fit the default limits.
func BenchmarkServeDehinDecode(b *testing.B) {
	g, err := benchGraph(2000, 17)
	if err != nil {
		b.Fatal(err)
	}
	var bodies [][]byte
	size := 0
	for u := 0; u < g.NumEntities(); u++ {
		req := snippetFromUser(g, hin.EntityID(u))
		if len(req.Entities) <= 256 && len(req.Links) <= 1024 {
			bodies = append(bodies, mustMarshal(b, req))
			size += len(bodies[len(bodies)-1])
		}
	}
	b.SetBytes(int64(size / len(bodies)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := bodies[i%len(bodies)]
		req, _, _, err := readDehin(bytes.NewReader(body), 256, 1024)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += int64(req.Target)
	}
}

// limitBody is a /v1/dehin body of n profile-only users and m follow
// links between distinct pairs of them, with links first if asked. The
// target key is written with an escape when escaped is set, which sends
// the body to encoding/json instead of decodeDehin.
func limitBody(n, m int, linksFirst, escaped bool, linkTail string) []byte {
	var links []string
	for i := 0; i < m; i++ {
		from := i / (n - 1)
		links = append(links, fmt.Sprintf(`{"type":"follow","from":%d,"to":%d,"strength":1}`, from, (from+1+i%(n-1))%n))
	}
	ents := `"entities":` + repeatJSON(`{"type":"User","attrs":[1980,1,3,4]}`, n)
	ls := `"links":[` + strings.Join(links, ",") + linkTail + `]`
	target := `"target":0`
	if escaped {
		target = `"\u0074arget":0`
	}
	if linksFirst {
		return []byte("{" + ls + "," + target + "," + ents + "}")
	}
	return []byte("{" + target + "," + ents + "," + ls + "}")
}

// TestDehinSnippetLimits checks the snippet limits through the handler,
// on both decode paths: a body at both limits passes them, one entity or
// one link more answers 413, and a body over the entity limit answers the
// same 413 with its links first, or encoding/json's 400 when it breaks
// after the limit.
func TestDehinSnippetLimits(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSnippetEntities, cfg.MaxSnippetEdges = 8, 12
	s := New(cfg)
	if err := s.LoadBackend(testGraph(t, 200, 3)); err != nil {
		t.Fatal(err)
	}
	defer closeIdle(t, s)
	h := s.Handler()

	var broken dehinRequest
	brokenBody := limitBody(40, 3, false, false, ",")
	jerr := json.NewDecoder(bytes.NewReader(brokenBody)).Decode(&broken)
	if jerr == nil {
		t.Fatal("the broken body decodes")
	}
	for _, c := range []struct {
		name       string
		n, m       int
		linksFirst bool
		tail       string
		code       int
		want       string
	}{
		{"at both limits", 8, 12, false, "", 200, ""},
		{"one entity over", 9, 12, false, "", 413, "snippet has 9 entities, limit 8"},
		{"one link over", 8, 13, false, "", 413, "snippet has 13 links, limit 12"},
		{"links first", 40, 3, true, "", 413, "snippet has 40 entities, limit 8"},
		{"broken after the limit", 40, 3, false, ",", 400, "malformed body: " + jerr.Error()},
	} {
		for _, escaped := range []bool{false, true} {
			body := limitBody(c.n, c.m, c.linksFirst, escaped, c.tail)
			_, _, _, fast := decodeDehin(body, cfg.MaxSnippetEntities, cfg.MaxSnippetEdges)
			if wantFast := !escaped && c.tail == ""; fast != wantFast {
				t.Fatalf("%s (escaped %v): decodeDehin ok = %v, want %v", c.name, escaped, fast, wantFast)
			}
			rec := serveDehin(context.Background(), h, body)
			requireIdle(t, s)
			if rec.Code != c.code {
				t.Fatalf("%s (escaped %v) = %d, want %d: %s", c.name, escaped, rec.Code, c.code, rec.Body)
			}
			var e errResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatal(err)
			}
			if e.Error != c.want {
				t.Fatalf("%s (escaped %v): error %q, want %q", c.name, escaped, e.Error, c.want)
			}
		}
	}
}

// TestUnknownSetErrorIsStable posts a snippet naming three unknown set
// attributes: the 400 must name the smallest every time, not whichever
// map iteration meets first.
func TestUnknownSetErrorIsStable(t *testing.T) {
	s := New(testConfig())
	if err := s.LoadBackend(testGraph(t, 200, 3)); err != nil {
		t.Fatal(err)
	}
	defer closeIdle(t, s)
	h := s.Handler()
	body := []byte(`{"target":0,"entities":[{"type":"User","attrs":[1980,1,3,4],"sets":{"alpha":[1],"beta":[2],"gamma":[3]}}]}`)
	for i := 0; i < 20; i++ {
		rec := serveDehin(context.Background(), h, body)
		if want := `{"error":"entity 0: type \"User\" has no set attribute \"alpha\"","epoch":1}` + "\n"; rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Fatalf("post %d = %d %s, want 400 %s", i, rec.Code, rec.Body, want)
		}
	}
}
