package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
)

// expvarRegistry is the registry the process-wide expvar bridge reads.
// expvar.Publish is once-per-name for the process lifetime, so the bridge
// publishes a single "obs" var whose Func dereferences this pointer; the
// most recently served registry wins (in practice there is one per
// process).
var expvarRegistry atomic.Pointer[Registry]

var expvarPublished atomic.Bool

func bridgeExpvar(r *Registry) {
	expvarRegistry.Store(r)
	if expvarPublished.CompareAndSwap(false, true) {
		expvar.Publish("obs", expvar.Func(func() any {
			return expvarRegistry.Load().Snapshot()
		}))
	}
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w) //hin:allow errdrop -- a failed scrape response write is the scraper's problem, not ours
	})
}

// NewMux builds the operational endpoint set for one registry:
//
//	/metrics       Prometheus text format
//	/debug/vars    expvar (process vars plus the registry under "obs")
//	/debug/pprof/  the standard pprof handlers
//
// The mux is self-contained - nothing is registered on
// http.DefaultServeMux - so embedding callers keep control of their own
// routing.
func NewMux(r *Registry) *http.ServeMux {
	bridgeExpvar(r)
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the NewMux endpoints on addr in a background goroutine and
// returns the live listener, so callers learn the bound address (":0" is
// supported for tests) and can Close it to stop serving. The server lives
// for the remainder of the process; commands serve during a run and exit.
func Serve(addr string, r *Registry) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewMux(r)}
	go func() { _ = srv.Serve(ln) }() //hin:allow errdrop -- Serve always returns ErrServerClosed after Listener.Close
	return ln, nil
}
