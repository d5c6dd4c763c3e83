// Command pebblebench is the repository's end-to-end benchmark. For one
// workload it builds ./cmd/pebbled from the working tree, starts a fresh
// server, drives it over HTTP from this process through at most nproc
// connections with no retries, checks every answer against the paper's
// bounds, scrapes the server's counters around the measured window, and
// stops it with SIGTERM, requiring a clean drain. It must run from the
// repository root; run.sh does that with the build cache kept in the
// checkout.
//
// The measured window is five cycles of two slices on one request
// stream drawn from -seed:
//
//   - closed: nproc clients send a fixed number of requests back to
//     back; latency runs from send to the end of the body.
//   - open: Poisson arrivals at the workload's fixed rate; latency runs
//     from the request's due time, so waiting for a free connection
//     counts.
//
// The end-to-end metrics are medians over the five closed slices, so a
// few seconds of interference from a neighbour on a shared machine do
// not decide a run, and each slice's timings are scaled to the reference
// machine's speed by a probe of fixed CPU work timed around it
// (probe.go), because a shared host's speed drifts over minutes, across
// whole runs. The open slices give per-layer metrics only. Failed
// requests count as +Inf in every percentile. The last line of standard
// output is one JSON object: correct, attempted, failed and the metrics.
// With -trace 1 the run then replays the workload's leading requests one
// at a time against another fresh pebbled and repeats each in process,
// layer by layer, under spans of its own tracer; it reports per-layer
// metrics instead of end-to-end ones.
//
//	sh cmd/pebblebench/run.sh --workload universal-cold --seed 1 --seconds 20 --trace 0
//	go run ./cmd/pebblebench --workload universal-cold
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"joinpebble/internal/obs"
)

// Run shape. Each cycle's closed slice is sized to closedShare of the
// cycle. Set-up runs setupRounds times and reports the median, and each
// round ends with one stratified block of unmeasured requests, so the
// measured window starts on a server whose heap and connections are warm
// and every seed's set-up does the same amount of work. quickRequests
// sizes each slice of a quick run.
const (
	cycles         = 5
	closedShare    = 0.5
	setupRounds    = 5
	warmupRequests = blockSize
	quickRequests  = 25
	// tailQ is the tail percentile reported for both phases. At the
	// default 20 s every workload's closed slice has at least 256
	// requests and its open phase 320 arrivals, so at least 13 samples
	// lie beyond it.
	tailQ = 0.95
)

type config struct {
	w        *workload
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	conns    int
	// base and quick are set only by the tests: they drive an in-process
	// server at base for one short cycle, with one set-up and no tails.
	base  string
	quick bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "pebblebench: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pebblebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pebblebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("pebblebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the request stream and arrival schedule are drawn from")
	seconds := fs.Float64("seconds", 20, "measured seconds, closed and open slices together")
	trace := fs.Int("trace", 0, "1 adds the traced replay and reports per-layer metrics instead of end-to-end ones")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the replay's Chrome trace into this directory")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{
		w:        workloadByName(*name),
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		traceOut: *traceOut,
		conns:    runtime.NumCPU(),
	}
	switch {
	case fs.NArg() > 0:
		return config{}, fmt.Errorf("unexpected arguments %v", fs.Args())
	case cfg.w == nil:
		return config{}, fmt.Errorf("-workload must be one of %s", strings.Join(names, ", "))
	case *trace != 0 && *trace != 1:
		return config{}, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	case cfg.seconds <= 0:
		return config{}, errors.New("-seconds must be positive")
	}
	return cfg, nil
}

// run measures one workload and returns its result; an error means the
// benchmark itself could not run.
func run(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	w := cfg.w
	var bin string
	if cfg.base == "" {
		var err error
		if bin, err = buildPebbled(ctx); err != nil {
			return nil, err
		}
	}
	rounds := setupRounds
	if cfg.quick || cfg.base != "" {
		rounds = 1
	}
	chk := newChecker(w)
	srv, setupS, err := setUp(ctx, bin, cfg, chk, rounds, warmupRequests)
	if err != nil {
		return nil, err
	}
	defer srv.kill()

	before, err := srv.counters(ctx)
	if err != nil {
		return nil, err
	}
	win, err := measure(ctx, cfg, srv, chk)
	if err != nil {
		return nil, err
	}
	after, err := srv.counters(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rss, haveRSS, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	drainErr := srv.stop()

	closed, open := pool(win.closed), pool(win.open)
	res := &result{
		Attempted: len(closed.samples) + len(open.samples),
		Failed:    closed.failed() + open.failed(),
	}
	fmt.Fprintf(log, "pebblebench: %s seed %d: %d cycles, closed %d requests in %.2fs, open %d arrivals in %.2fs, %d failed\n",
		w.name, cfg.seed, len(win.closed), len(closed.samples), closed.wall.Seconds(), len(open.samples), open.wall.Seconds(), res.Failed)
	probeMS := ms(refProbe) / hostScale(win.probes)
	fmt.Fprintf(log, "pebblebench: host probe median %.2fms over %d probes (reference %.2fms)\n", probeMS, len(win.probes), ms(refProbe))
	report(log, "closed", closed)
	report(log, "open", open)
	var problems []string
	if res.Failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d requests failed", res.Failed, res.Attempted))
	}
	if drainErr != nil {
		problems = append(problems, drainErr.Error())
	}

	if !cfg.trace {
		res.Metrics, err = endToEnd(cfg, setupS, win, rss, haveRSS)
		if err != nil {
			return nil, err
		}
	} else {
		res.Metrics, err = serverLayers(before, after, open, probeMS)
		if err != nil {
			return nil, err
		}
		// The replay gets a server of its own that has seen only the
		// cache fill, so its cache holds exactly what the replayer's does.
		srv2, _, err := setUp(ctx, bin, cfg, newChecker(w), 1, 0)
		if err != nil {
			return nil, err
		}
		defer srv2.kill()
		traced, tr, replayed, err := replay(ctx, srv2.base, w, cfg.seed, w.replay, obs.Now().Add(seconds(cfg.seconds)))
		res.Attempted += replayed
		fmt.Fprintf(log, "pebblebench: replayed %d requests\n", replayed)
		if err != nil {
			problems = append(problems, err.Error())
		}
		if err := srv2.stop(); err != nil {
			problems = append(problems, err.Error())
		}
		for k, v := range traced {
			res.Metrics[k] = v
		}
		if tr != nil && cfg.traceOut != "" {
			path, err := writeChromeTrace(cfg.traceOut, w.name, tr)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "pebblebench: wrote %s\n", path)
		}
	}
	for _, p := range problems {
		fmt.Fprintf(log, "pebblebench: FAIL: %s\n", p)
	}
	res.Correct = len(problems) == 0
	printMetrics(log, res.Metrics)
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// window is the measured part of a run: one closed and one open slice
// per cycle, and the host probes taken before the first slice and after
// each slice.
type window struct {
	closed, open []phase
	probes       []time.Duration
}

// closedOverrun is how many times its planned length a closed slice may
// run on a slow host before it stops short of its requests.
const closedOverrun = 3

// measure runs the cycles. The closed slices draw one request stream in
// order, the open slices another, so a slow closed slice does not shift
// what the open slices send. A closed slice sends a fixed number of
// requests: whole blocks, as many as the workload's closedRate gets
// through in closedShare of a cycle. So a run does the same work on a
// slow host as on a fast one, and pebbled's cache and heap end the same.
// The host probe runs before the first slice and after every slice, and
// each slice's scale comes from the two probes around it.
func measure(ctx context.Context, cfg config, srv *server, chk *checker) (window, error) {
	w := cfg.w
	c := newClient(srv.base, cfg.conns)
	closedStream, openStream := newStream(w, cfg.seed, saltClosed), newStream(w, cfg.seed, saltOpen)
	arrivals := subRand(cfg.seed, saltArrivals)
	n, closedN, openN, rate := 1, quickRequests, quickRequests, w.openRate
	cycle := seconds(cfg.seconds / cycles)
	closedTime := time.Duration(float64(cycle) * closedShare)
	if !cfg.quick {
		n = cycles
		closedN = wholeBlocks(w.closedRate * closedTime.Seconds())
		openN, rate = openSlice(w, cycle-closedTime)
	}
	var win window
	before, err := srv.probe(cfg.conns)
	win.probes = append(win.probes, before)
	if err != nil {
		return win, err
	}
	// scaled probes the host after a slice and sets the slice's scale.
	scaled := func(p phase) (phase, error) {
		after, err := srv.probe(cfg.conns)
		win.probes = append(win.probes, after)
		p.scale = hostScale([]time.Duration{before, after})
		before = after
		return p, err
	}
	for k := 0; k < n && ctx.Err() == nil; k++ {
		var deadline time.Time
		if !cfg.quick {
			deadline = obs.Now().Add(closedOverrun * closedTime)
		}
		p, err := scaled(closedLoop(ctx, c, chk, cfg.conns, until(closedStream, deadline, closedN)))
		win.closed = append(win.closed, p)
		if err != nil {
			return win, err
		}
		p, err = scaled(openLoop(ctx, c, chk, cfg.conns, openStream.take(openN), schedule(arrivals, rate, openN)))
		win.open = append(win.open, p)
		if err != nil {
			return win, err
		}
	}
	return win, nil
}

// wholeBlocks rounds n requests to a whole number of blocks once n is at
// least half a block, so that a slice of any seed sends the same request
// shapes, and the few largest, which set the tail, are always all there.
func wholeBlocks(n float64) int {
	if blocks := math.Round(n / blockSize); blocks >= 1 {
		n = blocks * blockSize
	}
	return int(math.Max(1, math.Round(n)))
}

// openSlice returns how many arrivals an open slice of length d gets,
// in whole blocks, and the rate that fits them into d.
func openSlice(w *workload, d time.Duration) (int, float64) {
	n := wholeBlocks(w.openRate * d.Seconds())
	return n, float64(n) / d.Seconds()
}

// setUp starts pebbled and readies it for the workload rounds times
// over, and returns the last server with the median set-up time in
// seconds: process start to /readyz 200, the cache fill for a workload
// of repeated instances, and warmup unmeasured requests. Each round's
// time is scaled by the host probe taken just before it, while no
// pebbled runs. The earlier servers are killed rather than drained:
// pebbled answers /readyz before it installs its SIGTERM handler, so a
// SIGTERM straight after set-up can kill it undrained.
func setUp(ctx context.Context, bin string, cfg config, chk *checker, rounds, warmup int) (*server, float64, error) {
	var (
		srv   *server
		times []float64
	)
	for i := 0; i < rounds; i++ {
		srv.kill()
		scale := hostScale([]time.Duration{probe(cfg.conns)})
		start := obs.Now()
		s, err := launch(ctx, bin, cfg.base)
		if err != nil {
			return nil, 0, err
		}
		srv = s
		if err := ready(ctx, srv, cfg, chk, warmup); err != nil {
			srv.kill()
			return nil, 0, err
		}
		times = append(times, scale*obs.Since(start).Seconds())
	}
	return srv, median(times), nil
}

// warmupSeed seeds the warm-up requests of every run. They do not depend
// on the run's seed, so every seed's set-up does the same work: with
// seeded warm-up blocks, two seeds in ten read a universal-cold set-up
// 1.5 to 1.7 times the median.
const warmupSeed = 0

// ready asks for each of the workload's distinct instances once, so the
// measured window sees only cache hits, then sends warmup requests drawn
// apart from the measured streams (for repeated instances, a fixed
// order of the run's instances). pebbled caches only undegraded solves,
// so a degraded fill answer fails the set-up, as does any failure.
func ready(ctx context.Context, srv *server, cfg config, chk *checker, warmup int) error {
	c := newClient(srv.base, cfg.conns)
	pool := instances(cfg.w, cfg.seed)
	fill := closedLoop(ctx, c, chk, cfg.conns, each(pool))
	warmStream := &stream{w: cfg.w, rng: subRand(warmupSeed, saltWarmup), pool: pool}
	warm := closedLoop(ctx, c, chk, cfg.conns, each(warmStream.take(warmup)))
	for _, s := range append(fill.samples, warm.samples...) {
		if !s.ok() {
			return fmt.Errorf("set-up request %+v: %w", s.req, s.err)
		}
	}
	for _, s := range fill.samples {
		if s.resp.Degraded {
			return fmt.Errorf("cache fill: instance %+v degraded, so pebbled did not cache it", s.req)
		}
	}
	return ctx.Err()
}

// endToEnd computes the metrics a user of pebbled sees. Each is a
// median over the closed slices, which shrugs off a few seconds of
// interference on a shared machine, and each timing is brought to the
// reference machine's speed by its slice's scale: a time is multiplied
// by it and the throughput divided (see hostScale). The open slices give
// only per-layer metrics (see serverLayers).
func endToEnd(cfg config, setupS float64, win window, rss float64, haveRSS bool) (map[string]metric, error) {
	stats := []struct {
		name, unit string
		f          func(*phase) (float64, error)
		tail       bool
	}{
		{"throughput_rps", "req/s", func(p *phase) (float64, error) {
			return float64(len(p.samples)-p.failed()) / p.wall.Seconds() / p.scale, nil
		}, false},
		{"latency_p50_ms", "ms", func(p *phase) (float64, error) {
			return p.scale * quantile(p.latencies(), 0.5), nil
		}, false},
		{"latency_p95_ms", "ms", func(p *phase) (float64, error) {
			v, err := tailQuantile(p.latencies(), tailQ)
			return p.scale * v, err
		}, true},
	}
	var effective, edges float64
	for _, s := range pool(win.closed).samples {
		if s.ok() {
			effective += float64(s.resp.EffectiveCost)
			edges += float64(s.resp.Edges)
		}
	}
	m := map[string]metric{
		"setup_s":   {setupS, "s"},
		"pi_over_m": {ratio(effective, edges), "ratio"},
	}
	if haveRSS {
		m["rss_peak_mb"] = metric{rss, "MB"}
	}
	for _, st := range stats {
		if cfg.quick && st.tail {
			continue
		}
		vals := make([]float64, len(win.closed))
		for i := range win.closed {
			v, err := st.f(&win.closed[i])
			if err != nil {
				return nil, fmt.Errorf("%s: %w (lengthen -seconds)", st.name, err)
			}
			vals[i] = v
		}
		if v := median(vals); !math.IsInf(v, 0) && !math.IsNaN(v) { // +Inf: a failed request, and the run is already incorrect
			m[st.name] = metric{v, st.unit}
		}
	}
	return m, nil
}

// serverLayers computes the per-layer metrics that come from pebbled's
// own counters over the measured window, from the load generator and
// from the host probe (its median, probeMS). Like every per-layer
// timing they are as measured, not scaled to the reference speed.
// No workload routes to exact search or degrades (README.md, "Why there
// is no mixed-tail workload"), so the exact-search, Held-Karp and
// degrade counters are left out until one does.
//
// The open phase's median and p95 are reported here, beside the
// generator's lag and queue wait that explain them, and not as
// end-to-end metrics: on a shared host they follow how late the host
// wakes the idle processes more than they follow pebbled, and no run
// length, rate, statistic or host-speed scaling tried kept their spread
// across seeds within a bound (README.md, "End-to-end metrics").
func serverLayers(before, after map[string]int64, open phase, probeMS float64) (map[string]metric, error) {
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	runs := delta("engine/runs")
	hits, misses := delta("engine/cache/hit"), delta("engine/cache/miss")
	var lag, wait []float64
	for _, s := range open.samples {
		lag = append(lag, ms(s.lag))
		wait = append(wait, ms(s.wait))
	}
	m := map[string]metric{
		"loadgen.lag_p99_ms":        {quantile(lag, 0.99), "ms"},
		"loadgen.wait_p95_ms":       {quantile(wait, 0.95), "ms"},
		"engine.route_perfect_frac": {ratio(delta("engine/plan/perfect"), runs), "fraction"},
		"engine.route_approx_frac":  {ratio(delta("engine/plan/approx"), runs), "fraction"},
		"schemecache.hit_ratio":     {ratio(hits, hits+misses), "fraction"},
		"schemecache.evictions":     {delta("engine/cache/evict"), "count"},
		"host.probe_ms":             {probeMS, "ms"},
	}
	tail, err := tailQuantile(open.latencies(), tailQ)
	if err != nil {
		return nil, fmt.Errorf("loadgen.open_p95_ms: %w (lengthen -seconds)", err)
	}
	if !math.IsInf(tail, 0) { // +Inf: a failed request, and the run is already incorrect
		m["loadgen.open_p50_ms"] = metric{quantile(open.latencies(), 0.5), "ms"}
		m["loadgen.open_p95_ms"] = metric{tail, "ms"}
	}
	return m, nil
}

// report prints a phase's first few failures and its slowest answers,
// so a tail can be traced to the requests that made it.
func report(log io.Writer, name string, p phase) {
	shown := 0
	for _, s := range p.samples {
		if !s.ok() && shown < 5 {
			fmt.Fprintf(log, "pebblebench: %s: failed %+v: %v\n", name, s.req, s.err)
			shown++
		}
	}
	slow := make([]sample, 0, len(p.samples))
	for _, s := range p.samples {
		if s.ok() {
			slow = append(slow, s)
		}
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].lat > slow[j].lat })
	for _, s := range slow[:min(3, len(slow))] {
		fmt.Fprintf(log, "pebblebench: %s: %.1fms %s %dx%d: %d edges, %s, attempts %+v\n",
			name, ms(s.lat), s.req.Family, s.req.Left, s.req.Right, s.resp.Edges, s.resp.Solver, s.resp.Attempts)
	}
}

func printMetrics(log io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(log, "  %-34s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}
