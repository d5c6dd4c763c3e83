// Package obshttp exposes an obs.Registry over HTTP: the registry as an
// expvar variable on /debug/vars, the standard net/http/pprof profiling
// handlers on /debug/pprof/, and the scope flight recorder on
// /debug/joinpebble/flightrecorder. It exists as a subpackage so that
// internal/obs itself stays dependency-free — only binaries that opt in
// (the cmd tools' -pprof flag) link net/http.
package obshttp

import (
	"context"
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"joinpebble/internal/obs"
)

// FlightRecorderPath is the debug endpoint serving the process flight
// recorder: the last N scope summaries plus full span dumps for every
// flagged (degraded/faulted/panicked/errored) solve.
const FlightRecorderPath = "/debug/joinpebble/flightrecorder"

// FlightRecorderHandler serves fr's current snapshot as indented JSON.
func FlightRecorderHandler(fr *obs.FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, err := json.MarshalIndent(fr.Snapshot(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(data, '\n')) //nolint:errcheck // best-effort response body
	})
}

var publishOnce sync.Map // name -> struct{}; expvar.Publish panics on duplicates

// Publish registers r under name on expvar, so every /debug/vars scrape
// returns a fresh snapshot. Repeated calls with the same name are no-ops.
func Publish(name string, r *obs.Registry) {
	if _, loaded := publishOnce.LoadOrStore(name, struct{}{}); loaded {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// Server is the debug endpoint: an HTTP server bound to one listener,
// serving /debug/vars and /debug/pprof/ on its own mux (never the
// DefaultServeMux, so a binary embedding other handlers cannot collide
// with or accidentally expose ours). It is hardened against misbehaving
// clients — header, read, and idle timeouts — and shuts down gracefully
// under a caller-supplied context.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start publishes obs.Default as "joinpebble" and begins serving on addr
// (e.g. "localhost:6060") in the background. The listener is bound
// synchronously so bind errors surface to the caller; the Addr method
// reports the bound address, useful with addr ":0".
//
// Timeout policy: slow-loris protection on headers (5s) and request
// bodies (30s), idle keep-alive connections reaped after 2 minutes. No
// write timeout — /debug/pprof/profile?seconds=N legitimately streams
// for N seconds and must not be cut off mid-profile.
func Start(addr string) (*Server, error) {
	Publish("joinpebble", obs.Default)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle(FlightRecorderPath, FlightRecorderHandler(obs.DefaultRecorder))
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
	}
	//joinlint:ignore golife deliberate daemon: the debug accept loop runs until Shutdown; a binary that never calls it keeps the listener for its whole life
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Shutdown; a binary without Shutdown dies with the process
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Shutdown stops accepting connections and waits for in-flight requests
// to drain, up to ctx's deadline; past the deadline remaining
// connections are abandoned and ctx.Err() is returned. Safe to call on
// a nil receiver (no server started).
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}
