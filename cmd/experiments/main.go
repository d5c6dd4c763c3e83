// Command experiments regenerates the per-claim verification tables
// recorded in EXPERIMENTS.md — one experiment per theorem/lemma/figure
// of the paper (E1..E19; see DESIGN.md for the index).
//
// Experiments run one after another on one goroutine and print their
// tables in registry order. A per-experiment wall-time/allocation table
// and a per-phase instrumentation table go to stderr afterwards
// (suppress with -timing=false), so piping -markdown output into
// EXPERIMENTS.md stays clean.
//
// Usage:
//
//	experiments                  # run everything, aligned-text tables
//	experiments -run E7,E11      # a subset
//	experiments -markdown        # GitHub-flavored markdown (EXPERIMENTS.md body)
//	experiments -metrics m.json  # dump the metrics snapshot after the run
//	experiments -pprof :6060     # serve /debug/pprof and /debug/vars
//
// Experiments call the solvers directly, outside any request scope, so
// they record no spans; their per-phase timers reach -metrics and the
// stderr table.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"joinpebble/internal/bench"
	"joinpebble/internal/engine/cmdutil"
	"joinpebble/internal/obs"
)

type outcome struct {
	table  *bench.Table
	err    error
	wall   time.Duration
	allocs uint64 // heap bytes allocated during the run
}

func main() {
	runList := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	markdown := flag.Bool("markdown", false, "emit markdown tables")
	csv := flag.Bool("csv", false, "emit CSV (one table after another)")
	timing := flag.Bool("timing", true, "print per-experiment and per-phase tables to stderr")
	obsFlags := cmdutil.BindFlags(flag.CommandLine, "experiments", true)
	flag.Parse()

	if err := obsFlags.Start(); err != nil {
		cmdutil.Exit("experiments", err)
	}
	if flag.NArg() > 0 {
		cmdutil.Exit("experiments", cmdutil.Usagef("unexpected arguments %v", flag.Args()))
	}

	var selected []bench.Experiment
	if *runList == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				cmdutil.Exit("experiments", cmdutil.Usagef("unknown id %q", id))
			}
			selected = append(selected, e)
		}
	}

	results := make([]outcome, len(selected))
	failed := 0
	for i, e := range selected {
		results[i] = runOne(e)
		r := results[i]
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", e.ID, r.err)
			failed++
			continue
		}
		var renderErr error
		switch {
		case *markdown:
			renderErr = r.table.Markdown(os.Stdout)
		case *csv:
			renderErr = r.table.CSV(os.Stdout)
		default:
			renderErr = r.table.Render(os.Stdout)
		}
		if renderErr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", renderErr)
			os.Exit(1)
		}
	}
	if *timing {
		printTiming(selected, results)
		printPhases()
	}
	if err := obsFlags.Finish(); err != nil {
		cmdutil.Exit("experiments", err)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// printTiming renders the per-experiment wall-time/allocation table.
// Alloc figures are deltas of runtime.MemStats.TotalAlloc around each
// run.
func printTiming(selected []bench.Experiment, results []outcome) {
	tt := &bench.Table{
		ID:     "timing",
		Title:  "per-experiment wall time and allocations",
		Header: []string{"experiment", "title", "wall", "alloc"},
	}
	var total time.Duration
	var totalAllocs uint64
	for i, e := range selected {
		tt.AddRow(e.ID, e.Title, results[i].wall.Round(time.Microsecond).String(), formatBytes(results[i].allocs))
		total += results[i].wall
		totalAllocs += results[i].allocs
	}
	tt.AddRow("total", "", total.Round(time.Microsecond).String(), formatBytes(totalAllocs))
	if err := tt.Render(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
}

// printPhases renders the instrumented per-phase timers (solver phases,
// engine runs, ...) accumulated across every experiment that ran.
func printPhases() {
	snap := obs.Default.Snapshot()
	names := make([]string, 0, len(snap.Timers))
	for name := range snap.Timers {
		names = append(names, name)
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	pt := &bench.Table{
		ID:     "phases",
		Title:  "per-phase instrumented time (all experiments)",
		Header: []string{"phase", "count", "total", "avg"},
	}
	for _, name := range names {
		ts := snap.Timers[name]
		if ts.Count == 0 {
			continue
		}
		pt.AddRow(name,
			fmt.Sprint(ts.Count),
			time.Duration(ts.TotalNs).Round(time.Microsecond).String(),
			time.Duration(int64(ts.AvgNs)).Round(time.Microsecond).String())
	}
	if err := pt.Render(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
}

func formatBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

func runOne(e bench.Experiment) outcome {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := obs.Now()
	table, err := e.Run()
	wall := obs.Since(start)
	runtime.ReadMemStats(&after)
	return outcome{table: table, err: err, wall: wall, allocs: after.TotalAlloc - before.TotalAlloc}
}
