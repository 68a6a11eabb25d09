package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// testServer serves s over loopback HTTP. The request helpers that take
// one (getJSON, postJSON, rawRequest) check after every answer that s is
// idle again.
type testServer struct {
	*httptest.Server
	s *Server
}

func newTestServer(s *Server) *testServer {
	return &testServer{Server: httptest.NewServer(s.Handler()), s: s}
}

// requireIdle fails the test unless s is idle: the current snapshot holds
// only its Server.cur reference, and no attack-admission slot or queue
// place is taken. Handlers release both before they write the response,
// so this holds as soon as the client has read the answer to its last
// request. Call it on the test goroutine.
func requireIdle(t testing.TB, s *Server) {
	t.Helper()
	if sn := s.cur.Load(); sn != nil {
		if refs := sn.refs.Load(); refs != 1 {
			t.Fatalf("epoch %d holds %d references at idle, want 1", sn.epoch, refs)
		}
	}
	if n := len(s.attackSlots); n != 0 {
		t.Fatalf("%d attack slots of %d held at idle, want 0", n, cap(s.attackSlots))
	}
	if n := s.queued.Load(); n != 0 {
		t.Fatalf("%d requests queued for an attack slot at idle, want 0", n)
	}
}

// closeIdle closes s and fails the test unless every epoch drained and
// every retired snapshot file closed. A file pin left behind makes
// CSRFile.Close fail with hin.ErrLiveCursors, which s counts in
// serve_snapshot_close_errors_total.
func closeIdle(t testing.TB, s *Server) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.met.closeErrors.Value(); n != 0 {
		t.Fatalf("%d retired snapshot files failed to close", n)
	}
}

// serveDehin posts body to /v1/dehin straight through h, under ctx.
func serveDehin(ctx context.Context, h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/dehin", bytes.NewReader(body)).WithContext(ctx))
	return rec
}
