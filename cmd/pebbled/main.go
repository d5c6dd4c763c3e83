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
// per-request deadline carved into the engine's degradation ladder
// (each non-final rung may spend half of what remains), so a slow solve
// degrades (exact → approx-1.25 → naive) inside its budget.
// SIGINT/SIGTERM drain gracefully: readiness flips, the listener
// closes, in-flight solves finish under -drain-timeout, then the
// observability artifacts are flushed.
//
// All requests share one scheme cache (-cache-size, default 64MiB; 0
// disables it), so repeated shapes are answered from cache across
// requests. pebbled is the only command that keeps a cache: it is the
// only one that solves the same shapes again and again.
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
	"joinpebble/internal/schemecache"
	"joinpebble/internal/serve"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "max simultaneous solves (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "max callers waiting for a solve slot (0 = 4x max-concurrent)")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "max wait for a solve slot before 429")
	requestTimeout := flag.Duration("request-timeout", 5*time.Second, "per-request solve deadline cap")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight solves on shutdown")
	cacheSize := flag.String("cache-size", "64MiB", "scheme cache capacity in bytes (KB/MB/GB or KiB/MiB/GiB suffixes); 0 disables the cache")
	obsFlags := cmdutil.BindFlags(flag.CommandLine, "pebbled", true)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pebbled [flags]\nserves the joinpebble /v1 API until SIGINT/SIGTERM, then drains\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	cache, err := newCache(*cacheSize)
	if err != nil {
		cmdutil.Exit("pebbled", err)
	}
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
		Cache:          cache,
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

// newCache builds the scheme cache -cache-size asks for, or none at
// size 0.
func newCache(size string) (*schemecache.Cache, error) {
	n, err := cmdutil.ParseByteSize(size)
	if err != nil {
		return nil, cmdutil.Usagef("-cache-size: %v", err)
	}
	if n == 0 {
		return nil, nil
	}
	return schemecache.New(n, 0), nil
}
