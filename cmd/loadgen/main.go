// Command loadgen drives a running pebbled with open-loop load: Poisson
// arrivals at a fixed rate, a weighted mix of predicate families with
// heavy-tailed (bounded Pareto) instance sizes, every request issued
// through the shared retrying client (capped exponential backoff with
// jitter, honoring the server's Retry-After). Arrivals never wait for
// responses, so a saturated server sees genuine queue pressure and the
// 429 path is exercised for real.
//
// The run prints latency quantiles (p50/p99/p999 of successful
// requests), throughput, and the degraded/cached/rejected outcome
// fractions; -report writes the same numbers as a BENCH_<date>-serve
// style report (bench schema, Serve flag set, so kernel regression runs
// never pick it as a baseline) that embeds the server's own metrics,
// scraped from its /debug/vars after the run.
//
// Everything derives from -seed, so a run is replayable bit-for-bit on
// the generator side.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"joinpebble/internal/bench"
	"joinpebble/internal/engine/cmdutil"
	"joinpebble/internal/obs"
	"joinpebble/internal/serve"
)

func main() {
	base := flag.String("base", "http://localhost:8080", "pebbled base URL")
	rate := flag.Float64("rate", 50, "arrival rate in requests/second")
	duration := flag.Duration("duration", 5*time.Second, "how long to generate arrivals")
	seed := flag.Int64("seed", 1, "seed for arrivals, sizes, families, and workload seeds")
	budgetMS := flag.Int64("budget-ms", 0, "per-request solve budget in milliseconds (0 = server cap)")
	minSize := flag.Int("min-size", 8, "minimum per-side relation size")
	maxSize := flag.Int("max-size", 512, "maximum per-side relation size (Pareto tail cap)")
	alpha := flag.Float64("alpha", 1.5, "Pareto tail index for instance sizes")
	report := flag.String("report", "", "write a serve-flavored bench report (JSON) to this file")
	obsFlags := cmdutil.BindFlags(flag.CommandLine, "loadgen", false)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: loadgen [flags]\ngenerates open-loop load against a running pebbled\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if err := obsFlags.Start(); err != nil {
		cmdutil.Exit("loadgen", err)
	}
	if flag.NArg() != 0 {
		cmdutil.Exit("loadgen", cmdutil.Usagef("unexpected arguments %v", flag.Args()))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := run(ctx, os.Stdout, serve.LoadConfig{
		Base:     *base,
		Rate:     *rate,
		Duration: *duration,
		Seed:     *seed,
		BudgetMS: *budgetMS,
		MinSize:  *minSize,
		MaxSize:  *maxSize,
		Alpha:    *alpha,
	}, *report)
	if err == nil {
		err = obsFlags.Finish()
	}
	cmdutil.Exit("loadgen", err)
}

func run(ctx context.Context, w *os.File, cfg serve.LoadConfig, reportPath string) error {
	rep, err := serve.RunLoad(ctx, cfg)
	if rep == nil {
		return err
	}
	// An interrupted run still reports what it measured.
	frac := func(n int64) float64 {
		if rep.Requests == 0 {
			return 0
		}
		return float64(n) / float64(rep.Requests)
	}
	ms := func(ns float64) float64 { return ns / 1e6 }
	fmt.Fprintf(w, "requests   %d in %.2fs (rate %.1f/s asked)\n", rep.Requests, time.Duration(rep.ElapsedNS).Seconds(), cfg.Rate)
	fmt.Fprintf(w, "ok         %d (%.1f/s completed)\n", rep.OK, rep.ThroughputRPS)
	fmt.Fprintf(w, "degraded   %d (%.1f%%)\n", rep.Degraded, 100*frac(rep.Degraded))
	fmt.Fprintf(w, "cached     %d (%.1f%%)\n", rep.Cached, 100*frac(rep.Cached))
	fmt.Fprintf(w, "rejected   %d (%.1f%%), %d retries spent\n", rep.Rejected, 100*frac(rep.Rejected), rep.Retries)
	fmt.Fprintf(w, "canceled   %d, errors %d\n", rep.Canceled, rep.Errors)
	fmt.Fprintf(w, "latency    p50 %.2fms  p99 %.2fms  p999 %.2fms  mean %.2fms\n",
		ms(rep.P50NS), ms(rep.P99NS), ms(rep.P999NS), ms(rep.MeanNS))

	if rep.Errors > 0 && err == nil {
		err = fmt.Errorf("loadgen: %d requests failed with non-retryable errors", rep.Errors)
	}
	if reportPath == "" {
		return err
	}
	// Scrape under a fresh deadline: an interrupted run still reports.
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	metrics, serr := serverMetrics(sctx, cfg.Base)
	if serr != nil {
		if err == nil {
			err = fmt.Errorf("report: %w", serr)
		}
		return err
	}
	br := &bench.Report{
		Schema:     bench.SchemaVersion,
		Date:       obs.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Serve:      true,
		Series: []bench.Series{{
			Name:       "serve/solve",
			Iterations: int(rep.OK),
			NsPerOp:    rep.MeanNS,
			Extra: map[string]float64{
				"p50_ns":            rep.P50NS,
				"p99_ns":            rep.P99NS,
				"p999_ns":           rep.P999NS,
				"throughput_rps":    rep.ThroughputRPS,
				"degraded_fraction": frac(rep.Degraded),
				"cached_fraction":   frac(rep.Cached),
				"rejected_fraction": frac(rep.Rejected),
				"canceled":          float64(rep.Canceled),
				"errors":            float64(rep.Errors),
				"retries":           float64(rep.Retries),
				"rate_rps":          cfg.Rate,
			},
		}},
		Metrics: metrics,
	}
	if werr := bench.WriteReport(reportPath, br); werr != nil {
		if err == nil {
			err = werr
		}
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen: wrote report to %s\n", reportPath)
	return err
}

// serverMetrics scrapes the joinpebble registry from the server's
// /debug/vars, so a report carries the metrics of the process that did
// the work. A server without that var is an error.
func serverMetrics(ctx context.Context, base string) (*obs.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/vars", nil)
	if err != nil {
		return nil, fmt.Errorf("scrape /debug/vars: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /debug/vars: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /debug/vars: status %d", resp.StatusCode)
	}
	var vars struct {
		Joinpebble *obs.Snapshot `json:"joinpebble"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	if vars.Joinpebble == nil {
		return nil, errors.New("/debug/vars has no joinpebble registry")
	}
	return vars.Joinpebble, nil
}
