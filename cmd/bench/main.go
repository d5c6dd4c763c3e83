// Command bench runs the pinned performance suite (internal/bench
// PerfSuite), writes the measurements to BENCH_<date>.json, and compares
// them against the most recent previous report, exiting non-zero when any
// series regressed beyond the tolerance.
//
// Usage:
//
//	bench                      # run, write BENCH_<today>.json, compare
//	bench -baseline FILE.json  # compare against a specific report
//	bench -tolerance 1.30      # fail when cur/base ns exceeds 1.30
//	bench -run approx125       # only series whose name contains the string
//	bench -benchtime 1x        # smoke mode: one iteration per series (CI)
//
// The committed BENCH_<date>-legacy.json reports measured the
// pre-optimization code paths; they stay as history and are never chosen
// as an automatic baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"joinpebble/internal/bench"
	"joinpebble/internal/engine/cmdutil"
	"joinpebble/internal/obs"
)

func main() {
	testing.Init() // registers test.benchtime et al. on flag.CommandLine
	out := flag.String("out", "", "output JSON path (default BENCH_<date>.json)")
	baseline := flag.String("baseline", "", "report to compare against (default: latest non-legacy BENCH_*.json)")
	tolerance := flag.Float64("tolerance", 1.30, "regression threshold on ns/op ratio")
	runFilter := flag.String("run", "", "only run series whose name contains this substring")
	benchtime := flag.String("benchtime", "", "per-series time budget, e.g. 2s or 1x (default: testing's 1s)")
	noCompare := flag.Bool("nocompare", false, "skip the baseline comparison")
	obsFlags := cmdutil.BindFlags(flag.CommandLine, "bench", true)
	flag.Parse()

	if err := obsFlags.Start(); err != nil {
		cmdutil.Exit("bench", err)
	}
	if flag.NArg() > 0 {
		cmdutil.Exit("bench", cmdutil.Usagef("unexpected arguments %v", flag.Args()))
	}

	if *benchtime != "" {
		if err := flag.CommandLine.Lookup("test.benchtime").Value.Set(*benchtime); err != nil {
			cmdutil.Exit("bench", cmdutil.Usagef("bad -benchtime: %v", err))
		}
	}

	date := obs.Now().Format("2006-01-02")
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", date)
	}

	report := &bench.Report{
		Schema:     bench.SchemaVersion,
		Date:       date,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	for _, pc := range bench.PerfSuite() {
		if *runFilter != "" && !strings.Contains(pc.Name, *runFilter) {
			continue
		}
		r := testing.Benchmark(pc.Run)
		s := bench.Series{
			Name:        pc.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Extra:       pc.Extra,
		}
		report.Series = append(report.Series, s)
		fmt.Printf("%-44s %12.0f ns/op %10d allocs/op %6d iters\n", s.Name, s.NsPerOp, s.AllocsPerOp, s.Iterations)
	}
	if len(report.Series) == 0 {
		cmdutil.Exit("bench", cmdutil.Usagef("-run matched no series"))
	}
	// The suite has run by now, so the snapshot carries every counter the
	// measured code paths bumped — the report records work done, not just
	// time taken.
	report.Metrics = obs.Default.Snapshot()

	if err := bench.WriteReport(path, report); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)

	if err := obsFlags.Finish(); err != nil {
		cmdutil.Exit("bench", err)
	}

	if *noCompare {
		return
	}

	basePath, base := *baseline, (*bench.Report)(nil)
	var err error
	if basePath != "" {
		base, err = bench.LoadReport(basePath)
	} else {
		basePath, base, err = bench.LatestReport(".", path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if base == nil {
		fmt.Println("no previous report to compare against")
		return
	}

	cmp := bench.Compare(base, report)
	fmt.Printf("\ncompared against %s (tolerance %.2fx):\n", basePath, *tolerance)
	fmt.Print(bench.FormatComparison(cmp, *tolerance))
	if msg := cmp.FailureMessage(*tolerance); msg != "" {
		fmt.Fprintln(os.Stderr, "bench:", msg)
		os.Exit(1)
	}
	if len(cmp.Gone) > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d series disappeared from the suite\n", len(cmp.Gone))
		os.Exit(1)
	}
	fmt.Println("no regressions")
}
