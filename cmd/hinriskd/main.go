// Command hinriskd serves privacy-risk and de-anonymization queries over
// an anonymized HIN snapshot (an HINCSR01 file) via HTTP/JSON:
//
//	GET  /v1/risk?user=U&distance=N   per-user risk (1/class size)
//	GET  /v1/topk?k=K&distance=N      most identifiable users
//	POST /v1/dehin                    run the DeHIN attack for a snippet
//	GET  /v1/snapshot                 current epoch and dataset risk
//	GET  /v1/healthz                  readiness: snapshot present + age
//	POST /v1/reload                   load a new snapshot file
//	GET  /metrics, /debug/...         the obs operational surface
//	GET  /debug/requests              flight recorder (-flight)
//
// Reads are lock-free (see internal/serve): queries answer from an
// immutable snapshot swapped atomically by /v1/reload or SIGHUP, and
// in-flight requests always finish on the epoch they started on.
//
// Observability is opt-in: -flight N retains the span trees of the last
// N slow (>= -flight-slow) or failed requests for /debug/requests and a
// SIGQUIT stderr dump; -runtime-metrics D polls runtime/metrics onto
// /metrics every D.
//
// Usage:
//
//	hinriskd -graph snapshot.hincsr -addr :8321
//	kill -HUP $(pidof hinriskd)    # re-load the same file in place
//	kill -QUIT $(pidof hinriskd)   # dump retained requests to stderr
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/serve"
)

// logger is the command's structured stderr output (see internal/obs).
var logger = obs.NewLogger(os.Stderr, slog.LevelInfo)

func main() {
	var (
		graph    = flag.String("graph", "", "HINCSR01 snapshot file (required)")
		addr     = flag.String("addr", "127.0.0.1:8321", "listen address (host:0 picks a free port)")
		maxDist  = flag.Int("maxdistance", 2, "largest risk distance served; classes for 0..n are precomputed")
		atkDist  = flag.Int("attackdistance", 1, "neighborhood depth of /v1/dehin matching")
		attrs    = flag.String("attrs", "3", "comma-separated attr indices feeding distance-0 signatures")
		links    = flag.String("linktypes", "", "comma-separated link type ids to utilize (empty = all)")
		exact    = flag.String("exact", "0,1", "comma-separated exact-match profile attr indices")
		grow     = flag.String("grow", "2,3", "comma-separated growth-match profile attr indices")
		topkMax  = flag.Int("topk-max", 1000, "largest accepted /v1/topk k")
		inflight = flag.Int("inflight", 0, "max concurrent /v1/dehin attacks (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "max queued /v1/dehin requests before 429 (negative = none)")
		workers  = flag.Int("workers", 0, "snapshot build worker pool size (0 = GOMAXPROCS)")

		flightN    = flag.Int("flight", 0, "flight recorder capacity: retain the last N slow/failed request span trees (0 = off)")
		flightSlow = flag.Duration("flight-slow", 100*time.Millisecond, "flight recorder slow threshold; 2xx requests at or above it are retained")
		runtimeInt = flag.Duration("runtime-metrics", 0, "poll runtime/metrics onto /metrics at this interval (0 = off)")
	)
	flag.Parse()
	if *graph == "" {
		fatalf("-graph is required")
	}

	reg := obs.New()
	var flight *trace.Flight
	if *flightN > 0 {
		flight = trace.NewFlight(trace.FlightConfig{Capacity: *flightN, SlowThreshold: *flightSlow})
	}
	if *runtimeInt > 0 {
		defer obs.StartRuntime(reg, *runtimeInt).Stop()
	}
	s := serve.New(serve.Config{
		MaxDistance:    *maxDist,
		AttackDistance: *atkDist,
		LinkTypes:      linkTypeList(*links),
		EntityAttrs:    intList(*attrs),
		Profile: dehin.ProfileSpec{
			ExactAttrs: intList(*exact),
			GrowAttrs:  intList(*grow),
		},
		MaxTopK:           *topkMax,
		MaxAttackInFlight: *inflight,
		MaxAttackQueue:    *queue,
		Workers:           *workers,
		Metrics:           reg,
		Log:               logger,
		Flight:            flight,
	})
	if err := s.Load(*graph); err != nil {
		fatalf("%v", err)
	}

	mux := obs.NewMux(reg)
	s.Register(mux)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := s.Reload(""); err != nil {
				logger.Error("reload failed; keeping current epoch", "err", err)
			}
		}
	}()

	// SIGQUIT dumps the flight recorder to stderr (with durations) and
	// keeps serving — the operator's "what just went slow?" lever.
	// Registering the handler replaces the runtime's default
	// stack-dump-and-exit behavior for this signal.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			if flight == nil {
				logger.Info("flight recorder off; start with -flight to retain requests")
				continue
			}
			if err := flight.WriteText(os.Stderr, trace.TreeOptions{Durations: true}); err != nil {
				logger.Error("flight dump", "err", err)
			}
		}
	}()

	srv := &http.Server{Handler: mux}
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGINT, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-term
		// Graceful: stop accepting, let in-flight requests finish, and
		// cut off whatever is still open after shutdownDrainTimeout.
		ctx, cancel := context.WithTimeout(context.Background(), shutdownDrainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown drain timed out; closing open connections", "err", err, "timeout", shutdownDrainTimeout)
			if err := srv.Close(); err != nil {
				logger.Error("close connections", "err", err)
			}
		}
	}()
	// The bound address goes to stdout - it is the command's one machine-
	// readable output, parsed by hinload -launch and serve-smoke. It is
	// printed once every signal handler is installed, so a SIGTERM sent
	// right after it still drains.
	fmt.Printf("listening http://%s\n", ln.Addr())
	// Serve returns as soon as Shutdown starts; the snapshot may close
	// only once the in-flight requests have drained.
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatalf("serve: %v", err)
	}
	<-drained
	if err := s.Close(); err != nil {
		fatalf("close: %v", err)
	}
}

// shutdownDrainTimeout bounds how long SIGTERM/SIGINT waits for
// in-flight requests before closing their connections.
const shutdownDrainTimeout = 5 * time.Second

// intList parses a comma-separated list of non-negative integers; the
// empty string is the empty list.
func intList(s string) []int {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			fatalf("bad index %q in %q", p, s)
		}
		out = append(out, v)
	}
	return out
}

func linkTypeList(s string) []hin.LinkTypeID {
	ints := intList(s)
	out := make([]hin.LinkTypeID, len(ints))
	for i, v := range ints {
		out[i] = hin.LinkTypeID(v)
	}
	return out
}

func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
