// Command pebbled is the joinpebble service: a long-running HTTP+JSON
// daemon exposing the engine pipeline over three endpoints:
//
//	POST /v1/solve   solve an instance through the planner ladder
//	POST /v1/plan    route an instance without solving it
//	POST /v1/audit   score an emission order in the pebble game
//
// plus /healthz (liveness), /readyz (readiness; 503 once draining) and
// the debug surface (/debug/vars, the scope flight recorder, and the
// scheme-cache report) on the same port.
//
// Requests pass admission control — a bounded-concurrency semaphore
// with a bounded wait queue; past capacity the server answers 429 with
// Retry-After instead of queuing unboundedly — and run under a
// per-request deadline carved into the engine's degradation ladder, so
// a slow solve degrades (exact → approx-1.25 → naive) inside its
// budget. SIGINT/SIGTERM drain gracefully: readiness flips, the
// listener closes, in-flight solves finish under -drain-timeout, then
// the observability artifacts are flushed.
//
// All solves share the process-wide scheme cache (-cache-size; 0
// disables it), so repeated shapes are answered from cache across
// requests.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"joinpebble/internal/engine/cmdutil"
	"joinpebble/internal/serve"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "max simultaneous solves (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "max callers waiting for a solve slot (0 = 4x max-concurrent)")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "max wait for a solve slot before 429")
	requestTimeout := flag.Duration("request-timeout", 5*time.Second, "per-request solve deadline cap")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight solves on shutdown")
	rungFraction := flag.Float64("rung-fraction", 0, "share of the remaining deadline a non-final ladder rung may spend (0 = engine default)")
	exactLimit := flag.Int("exact-limit", 0, "exact-rung per-component edge cap (0 = solver default)")
	obsFlags := cmdutil.BindFlags(flag.CommandLine, "pebbled", true)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pebbled [flags]\nserves the joinpebble /v1 API until SIGINT/SIGTERM, then drains\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if err := obsFlags.Start(); err != nil {
		cmdutil.Exit("pebbled", err)
	}
	if flag.NArg() != 0 {
		cmdutil.Exit("pebbled", cmdutil.Usagef("unexpected arguments %v", flag.Args()))
	}

	// Install the handler before the listener opens: a SIGTERM that lands
	// right after the first /readyz 200 must drain, not kill the process.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	srv, err := serve.Start(serve.Config{
		Addr:           *addr,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
		RequestTimeout: *requestTimeout,
		DrainTimeout:   *drainTimeout,
		RungFraction:   *rungFraction,
		ExactLimit:     *exactLimit,
	})
	if err != nil {
		cmdutil.Exit("pebbled", err)
	}
	fmt.Fprintf(os.Stderr, "pebbled: serving on http://%s\n", srv.Addr())

	sig := <-sigs
	fmt.Fprintf(os.Stderr, "pebbled: %s, draining (%d in flight)\n", sig, srv.InFlight())

	err = srv.Shutdown(context.Background())
	if ferr := obsFlags.Finish(); err == nil {
		err = ferr
	}
	if err == nil {
		fmt.Fprintln(os.Stderr, "pebbled: drained")
	}
	cmdutil.Exit("pebbled", err)
}
