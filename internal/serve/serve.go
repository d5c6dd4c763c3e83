// Package serve is the joinpebble service layer: a long-running
// HTTP+JSON daemon surface (cmd/pebbled) over engine.Planner, plus the
// shared retrying client and the open-loop load generator (cmd/loadgen)
// that drives it.
//
// The request lifecycle is admission → ladder → drain:
//
//   - Admission: a bounded-concurrency semaphore with a bounded wait
//     queue (admit.go). Past capacity the server answers 429 with
//     Retry-After instead of queuing unboundedly.
//   - Ladder: every admitted request gets a per-request deadline
//     (min of its budget_ms and the server cap) carved into the
//     engine's ladder rungs (solver.LadderPolicy), so a slow solve
//     degrades down exact → approx-1.25 → naive inside the deadline
//     instead of blowing through it. Client disconnects cancel the solve through
//     the request context and are counted, not answered.
//   - Drain: Shutdown stops accepting (readyz flips to 503), waits for
//     in-flight solves under the drain deadline, then the caller
//     flushes obs (cmdutil.Finish in pebbled).
//
// Every request runs under its own obs.Scope, so per-request counters,
// spans and degradation provenance land in the flight recorder exactly
// as one-shot CLI solves do; the debug endpoints (/debug/vars, the
// flight recorder, the scheme-cache stats) are mounted on the same mux.
package serve

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"joinpebble/internal/faultinject"
	"joinpebble/internal/obs"
	"joinpebble/internal/obs/obshttp"
	"joinpebble/internal/schemecache"
)

// Fault-injection sites of the request lifecycle (registry in
// DESIGN.md). SiteAdmit lives in admit.go.
const (
	// SiteHandler fires at the top of every admitted request, under the
	// request context: an armed error is a transient handler failure
	// (503, retryable), an armed delay holds the request mid-flight —
	// the lever the drain and disconnect tests schedule against.
	SiteHandler = "serve/handler"
	// SiteDrain fires once at the start of Shutdown: an armed delay
	// stalls the drain against its deadline, an armed error is recorded
	// (serve/drain/faults) and the drain proceeds — a faulty drain hook
	// must never strand in-flight solves.
	SiteDrain = "serve/drain"
)

// Drain bookkeeping counters.
var (
	cDrainStarted  = obs.Default.Counter("serve/drain/started")
	cDrainFaults   = obs.Default.Counter("serve/drain/faults")
	cDrainInflight = obs.Default.Counter("serve/drain/inflight")
)

// Config is the service configuration; zero values take the documented
// defaults.
type Config struct {
	// Addr is the listen address (e.g. "localhost:8080", ":0").
	Addr string
	// MaxConcurrent bounds simultaneously running solves; 0 means
	// GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds callers waiting for a slot; 0 means
	// 4*MaxConcurrent. Past it, requests get 429 immediately.
	MaxQueue int
	// QueueTimeout bounds how long an admitted-to-queue caller waits
	// for a slot before 429; 0 means 1s.
	QueueTimeout time.Duration
	// RequestTimeout caps the per-request solve deadline; a request's
	// budget_ms is honored up to this. 0 means 5s.
	RequestTimeout time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight solves when the
	// caller's context has no deadline of its own. 0 means 10s.
	DrainTimeout time.Duration
	// MaxBody caps request body size in bytes; 0 means 1MiB.
	MaxBody int64
	// MaxRelation caps per-side relation/vertex counts in requests;
	// 0 means 4096. The join-graph builders are index joins, linear in
	// their output, but the output itself can reach left × right edges,
	// so this bounds per-request work.
	MaxRelation int
	// MaxEdges caps raw-bipartite edge lists; 0 means 1<<20.
	MaxEdges int
	// Cache, when non-nil, is the scheme cache every request's planner
	// consults and fills (pebbled's -cache-size); nil runs cache-free.
	Cache *schemecache.Cache
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.MaxRelation <= 0 {
		c.MaxRelation = 4096
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 1 << 20
	}
	return c
}

// Server is a running pebbled service bound to one listener.
type Server struct {
	cfg       Config
	admission *Admission
	ln        net.Listener
	srv       *http.Server
	draining  atomic.Bool
}

// Start binds cfg.Addr and begins serving in the background. The
// listener is bound synchronously so bind errors surface here; Addr
// reports the bound address (useful with ":0").
func Start(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:       cfg,
		admission: NewAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueTimeout),
		ln:        ln,
	}
	obshttp.Publish("joinpebble", obs.Default)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/v1/audit", s.handleAudit)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	// The obshttp debug surface rides on the service port, so a live
	// pebbled exposes its metrics, flight recorder, and scheme-cache
	// stats without a second listener (-pprof still offers the full
	// pprof handler set separately).
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle(obshttp.FlightRecorderPath, obshttp.FlightRecorderHandler(obs.DefaultRecorder))
	mux.Handle(obshttp.CachePath, obshttp.CacheHandlerFor(cfg.Cache))
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	//joinlint:ignore golife deliberate daemon: the accept loop runs until Shutdown/Close closes the listener, which every caller owns via Server.Shutdown
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Shutdown
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// URL returns the service base URL ("http://host:port").
func (s *Server) URL() string { return "http://" + s.ln.Addr().String() }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the number of admitted requests currently running.
func (s *Server) InFlight() int { return s.admission.InFlight() }

// Shutdown drains the server gracefully: readiness flips to 503, the
// listener stops accepting, and in-flight solves run to completion
// under the drain deadline (cfg.DrainTimeout, or ctx's own deadline if
// it has one). Past the deadline remaining connections are closed and
// the deadline error is returned. Admitted requests are never dropped
// by a drain that finishes in time — the drain test pins that.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil // second Shutdown: the first owns the drain
	}
	cDrainStarted.Inc()
	cDrainInflight.Add(int64(s.admission.InFlight()))
	if err := faultinject.FireContext(ctx, SiteDrain); err != nil {
		// A drain-hook fault is recorded, never fatal: stranding
		// in-flight solves because a shutdown callback failed would
		// invert the robustness contract.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		cDrainFaults.Inc()
	}
	dctx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
	}
	if err := s.srv.Shutdown(dctx); err != nil {
		s.srv.Close() //nolint:errcheck // past the drain deadline: abandon stragglers
		return fmt.Errorf("serve: drain: %w", err)
	}
	return nil
}

// handleHealthz reports liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: 200 while accepting, 503 once
// draining — load balancers stop routing here before the listener
// actually closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// errors the handlers classify on.
var errBadRequest = errors.New("serve: bad request")

// badRequestf wraps errBadRequest so handler plumbing can map malformed
// inputs to 400 with errors.Is.
func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errBadRequest}, args...)...)
}

// retryAfterSeconds renders d as a Retry-After header value: whole
// seconds, rounded up, at least 1 (the header has one-second
// granularity).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
