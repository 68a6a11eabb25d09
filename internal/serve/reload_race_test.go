package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs/trace"
)

// TestReloadUnderFire is the RCU soak: reader goroutines hammer /v1/risk
// over real HTTP while the snapshot is reloaded in a loop, and every
// single request must succeed (status 200, well-formed body, non-zero
// epoch). Each reader additionally asserts its observed epochs never go
// backwards - the atomic pointer swap is the only publication point, so a
// request started after a reload response returned can never read a
// retired epoch. Run under -race (the race-par lane does, at
// GOMAXPROCS=2) this doubles as the memory-model check on the
// acquire/release handshake; the final Close proves every retired epoch
// drained and unmapped cleanly.
func TestReloadUnderFire(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.hincsr"), filepath.Join(dir, "b.hincsr")}
	if err := hin.WriteCSRFile(paths[0], testGraph(t, 500, 21)); err != nil {
		t.Fatal(err)
	}
	if err := hin.WriteCSRFile(paths[1], testGraph(t, 700, 22)); err != nil {
		t.Fatal(err)
	}

	// The flight recorder rides along at a 1ns threshold and a tiny ring:
	// every request commits a capture, so the ring wraps constantly while
	// readers race reloads — the recorder's pool/ring synchronization is
	// part of what this soak checks under -race.
	flight := trace.NewFlight(trace.FlightConfig{Capacity: 4, SlowThreshold: time.Nanosecond})
	cfg := testConfig()
	cfg.Flight = flight
	s := New(cfg)
	if err := s.Load(paths[0]); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(s)
	defer ts.Close()

	const (
		readers = 8
		reloads = 6
	)
	var (
		stop     atomic.Bool
		failures atomic.Int64
		requests atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			lastEpoch := uint64(0)
			for i := 0; !stop.Load(); i++ {
				// 500 users is the smaller fixture; staying below it
				// keeps every request a 200 on both epochs.
				url := fmt.Sprintf("%s/v1/risk?user=%d&distance=%d", ts.URL, (w*131+i)%500, i%3)
				resp, err := client.Get(url)
				if err != nil {
					failures.Add(1)
					t.Errorf("reader %d: %v", w, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				requests.Add(1)
				var rr riskResponse
				if resp.StatusCode != 200 || json.Unmarshal(body, &rr) != nil || rr.Epoch == 0 {
					failures.Add(1)
					t.Errorf("reader %d: status %d body %s", w, resp.StatusCode, body)
					return
				}
				if rr.Epoch < lastEpoch {
					failures.Add(1)
					t.Errorf("reader %d: epoch went backwards: %d after %d", w, rr.Epoch, lastEpoch)
					return
				}
				lastEpoch = rr.Epoch
			}
		}(w)
	}

	for i := 0; i < reloads; i++ {
		if err := s.Reload(paths[(i+1)%2]); err != nil {
			t.Errorf("reload %d: %v", i, err)
		}
		// Export mid-soak: snapshotRecords copies ring slots while
		// commits race it, which -race must find unobjectionable.
		for _, rec := range flight.Records() {
			if rec.Path != "/v1/risk" || rec.Reason != "slow" || len(rec.Spans) == 0 {
				t.Errorf("malformed mid-soak record: %+v", rec)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d of %d requests failed during reloads", failures.Load(), requests.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("soak made no requests")
	}
	// At a 1ns threshold every 200 qualifies as slow, so the recorder
	// must have seen and captured every request the soak made.
	if flight.Captured() == 0 || flight.Captured() != flight.Total() {
		t.Fatalf("flight captured %d of %d finished requests", flight.Captured(), flight.Total())
	}
	if flight.Captured() < requests.Load() {
		t.Fatalf("flight finished %d < %d HTTP requests", flight.Captured(), requests.Load())
	}
	if got := s.Epoch(); got != reloads+1 {
		t.Fatalf("final epoch = %d, want %d", got, reloads+1)
	}
	// Every request has been answered: the current epoch holds only its
	// own reference, every retired epoch drains and closes its file, and
	// Close reporting leftover references would mean a leaked acquire.
	requireIdle(t, s)
	closeIdle(t, s)
	if m := s.cfg.Metrics.Snapshot(); m.Counter("serve_snapshots_retired_total") != reloads+1 {
		t.Fatalf("retired %d snapshots, want %d", m.Counter("serve_snapshots_retired_total"), reloads+1)
	}
}
