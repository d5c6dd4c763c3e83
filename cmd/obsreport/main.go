// Command obsreport renders joinpebble observability artifacts as text:
// metric snapshots (-metrics files, flight recorder dumps embed the same
// shape) as aligned tables, span traces (Chrome trace_event JSON from
// -trace-out) as indented trees, and pairs of snapshots or BENCH_*.json
// reports as before/after diffs that apply the same noise-floor
// significance rules as the bench regression comparator.
//
// Usage:
//
//	obsreport snapshot <metrics.json>
//	obsreport trace <trace.json>
//	obsreport diff [-tolerance 1.30] [-check] <base.json> <cur.json>
//
// diff auto-detects its inputs: a BENCH_*.json report (diffed series plus
// embedded metrics) or a bare metrics snapshot. With -check, diff exits 1
// when any timer or series regressed beyond the tolerance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"joinpebble/internal/bench"
	"joinpebble/internal/engine/cmdutil"
	"joinpebble/internal/obs"
)

func main() {
	cmdutil.Exit("obsreport", run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return cmdutil.Usagef("usage: obsreport <snapshot|trace|diff> [flags] <file...>")
	}
	switch args[0] {
	case "snapshot":
		if len(args) != 2 {
			return cmdutil.Usagef("usage: obsreport snapshot <metrics.json>")
		}
		return runSnapshot(args[1], w)
	case "trace":
		if len(args) != 2 {
			return cmdutil.Usagef("usage: obsreport trace <trace.json>")
		}
		return runTrace(args[1], w)
	case "diff":
		return runDiff(args[1:], w)
	default:
		return cmdutil.Usagef("unknown subcommand %q (want snapshot, trace, or diff)", args[0])
	}
}

// loadSnapshot reads either a bare obs.Snapshot or a BENCH_*.json report
// (returned too, so diff can also compare series). Exactly one of the
// returns is non-nil on success.
func loadSnapshot(path string) (*obs.Snapshot, *bench.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var probe struct {
		Schema   *int             `json:"schema"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if probe.Schema != nil {
		r, err := bench.LoadReport(path)
		if err != nil {
			return nil, nil, err
		}
		return nil, r, nil
	}
	var s obs.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil, nil
}

// sortedKeys returns m's keys ascending, the row order of every table.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func nameWidth(names []string, min int) int {
	w := min
	for _, n := range names {
		if len(n) > w {
			w = len(n)
		}
	}
	return w
}

func runSnapshot(path string, w io.Writer) error {
	snap, report, err := loadSnapshot(path)
	if err != nil {
		return err
	}
	if report != nil {
		fmt.Fprintf(w, "bench report %s (%s, GOMAXPROCS=%d, %d series)\n\n",
			report.Date, report.GoVersion, report.GOMAXPROCS, len(report.Series))
		if report.Metrics == nil {
			fmt.Fprintln(w, "no embedded metrics snapshot")
			return nil
		}
		snap = report.Metrics
	}
	writeSnapshot(w, snap)
	return nil
}

func writeSnapshot(w io.Writer, s *obs.Snapshot) {
	cw := nameWidth(sortedKeys(s.Counters), 20)
	fmt.Fprintf(w, "counters (%d)\n", len(s.Counters))
	for _, n := range sortedKeys(s.Counters) {
		fmt.Fprintf(w, "  %-*s %14d\n", cw, n, s.Counters[n])
	}
	tw := nameWidth(sortedKeys(s.Timers), 20)
	fmt.Fprintf(w, "\ntimers (%d)\n", len(s.Timers))
	fmt.Fprintf(w, "  %-*s %10s %14s %12s %12s %12s %12s\n",
		tw, "name", "count", "total_ns", "avg_ns", "p50_ns", "p99_ns", "max_ns")
	for _, n := range sortedKeys(s.Timers) {
		t := s.Timers[n]
		fmt.Fprintf(w, "  %-*s %10d %14d %12.0f %12.0f %12.0f %12d\n",
			tw, n, t.Count, t.TotalNs, t.AvgNs, t.Quantile(0.50), t.Quantile(0.99), t.MaxNs)
	}
	hw := nameWidth(sortedKeys(s.Histograms), 20)
	fmt.Fprintf(w, "\nhistograms (%d)\n", len(s.Histograms))
	fmt.Fprintf(w, "  %-*s %10s %14s %12s %12s %12s %12s\n",
		hw, "name", "count", "sum", "min", "p50", "p99", "max")
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		fmt.Fprintf(w, "  %-*s %10d %14d %12d %12.0f %12.0f %12d\n",
			hw, n, h.Count, h.Sum, h.Min, h.Quantile(0.50), h.Quantile(0.99), h.Max)
	}
}

// loadSpans parses path as Chrome trace_event JSON (an object with a
// traceEvents array), recovering the span tree from the id/parent args.
func loadSpans(path string) ([]obs.SpanRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc obs.ChromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if doc.TraceEvents == nil {
		return nil, fmt.Errorf("parse %s: no traceEvents array", path)
	}
	recs := make([]obs.SpanRecord, 0, len(doc.TraceEvents))
	for _, ev := range doc.TraceEvents {
		rec := obs.SpanRecord{
			Name:    ev.Name,
			StartNs: int64(ev.Ts * 1e3),
			DurNs:   int64(ev.Dur * 1e3),
		}
		for k, v := range ev.Args {
			switch k {
			case "id":
				rec.ID = int(v)
			case "parent":
				rec.Parent = int(v)
			default:
				if rec.Attrs == nil {
					rec.Attrs = make(map[string]int64)
				}
				rec.Attrs[k] = v
			}
		}
		recs = append(recs, rec)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, nil
}

func runTrace(path string, w io.Writer) error {
	recs, err := loadSpans(path)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Fprintln(w, "empty trace")
		return nil
	}
	// Depth from the parent chain: parents always precede children in id
	// order, which the tracer guarantees.
	depth := make(map[int]int, len(recs))
	for _, r := range recs {
		d := 0
		if r.Parent > 0 {
			d = depth[r.Parent] + 1
		}
		depth[r.ID] = d
	}
	fmt.Fprintf(w, "%d spans\n", len(recs))
	for _, r := range recs {
		dur := fmt.Sprintf("%d ns", r.DurNs)
		if r.DurNs < 0 {
			dur = "unended"
		}
		var attrs string
		if len(r.Attrs) > 0 {
			parts := make([]string, 0, len(r.Attrs))
			for _, k := range sortedKeys(r.Attrs) {
				parts = append(parts, fmt.Sprintf("%s=%d", k, r.Attrs[k]))
			}
			attrs = "  {" + strings.Join(parts, " ") + "}"
		}
		fmt.Fprintf(w, "%s%s  %s%s\n", strings.Repeat("  ", depth[r.ID]+1), r.Name, dur, attrs)
	}
	return nil
}

// regressError marks a -check diff that found regressions; it exits 1,
// not 2, because the inputs were fine — the code got slower.
type regressError struct{ n int }

func (e *regressError) Error() string {
	return fmt.Sprintf("%d regression(s) beyond tolerance", e.n)
}

func runDiff(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("obsreport diff", flag.ContinueOnError)
	tolerance := fs.Float64("tolerance", 1.30, "ratio beyond which a slowdown counts as a regression")
	check := fs.Bool("check", false, "exit 1 when anything regressed beyond the tolerance")
	if err := fs.Parse(args); err != nil {
		return cmdutil.Usagef("%v", err)
	}
	if fs.NArg() != 2 {
		return cmdutil.Usagef("usage: obsreport diff [-tolerance 1.30] [-check] <base.json> <cur.json>")
	}
	baseSnap, baseRep, err := loadSnapshot(fs.Arg(0))
	if err != nil {
		return err
	}
	curSnap, curRep, err := loadSnapshot(fs.Arg(1))
	if err != nil {
		return err
	}
	if (baseRep == nil) != (curRep == nil) {
		return cmdutil.Usagef("cannot diff a bench report against a bare snapshot")
	}
	regressions := 0
	if baseRep != nil {
		c := bench.Compare(baseRep, curRep)
		fmt.Fprintf(w, "series: %s -> %s\n", baseRep.Date, curRep.Date)
		fmt.Fprint(w, bench.FormatComparison(c, *tolerance))
		regressions += len(c.Regressions(*tolerance))
		baseSnap, curSnap = baseRep.Metrics, curRep.Metrics
		if baseSnap == nil || curSnap == nil {
			fmt.Fprintln(w, "\nmetrics: not embedded in both reports")
			baseSnap, curSnap = nil, nil
		} else {
			fmt.Fprintln(w)
		}
	}
	if baseSnap != nil {
		regressions += diffSnapshots(w, baseSnap, curSnap, *tolerance)
	}
	if *check && regressions > 0 {
		return &regressError{n: regressions}
	}
	return nil
}

// diffSnapshots renders counter deltas and timer/histogram timing shifts.
// A timer counts as regressed under exactly the bench comparator's rule:
// avg ratio beyond tolerance AND an absolute shift above the shared
// noise floor (bench.NoiseFloorNs). Returns the regression count.
func diffSnapshots(w io.Writer, base, cur *obs.Snapshot, tolerance float64) int {
	regressions := 0
	union := func(a, b []string) []string {
		seen := make(map[string]bool, len(a)+len(b))
		var out []string
		for _, n := range append(append([]string{}, a...), b...) {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
		sort.Strings(out)
		return out
	}

	counters := union(sortedKeys(base.Counters), sortedKeys(cur.Counters))
	cw := nameWidth(counters, 20)
	fmt.Fprintf(w, "counters (%d)\n", len(counters))
	fmt.Fprintf(w, "  %-*s %14s %14s %14s\n", cw, "name", "base", "cur", "delta")
	for _, n := range counters {
		b, inB := base.Counters[n]
		c, inC := cur.Counters[n]
		note := ""
		switch {
		case !inB:
			note = "  new"
		case !inC:
			note = "  MISSING"
		}
		fmt.Fprintf(w, "  %-*s %14d %14d %+14d%s\n", cw, n, b, c, c-b, note)
	}

	timers := union(sortedKeys(base.Timers), sortedKeys(cur.Timers))
	tw := nameWidth(timers, 20)
	fmt.Fprintf(w, "\ntimers (%d)\n", len(timers))
	fmt.Fprintf(w, "  %-*s %12s %12s %8s\n", tw, "name", "base avg_ns", "cur avg_ns", "ratio")
	for _, n := range timers {
		b, inB := base.Timers[n]
		c, inC := cur.Timers[n]
		switch {
		case !inB:
			fmt.Fprintf(w, "  %-*s %12s %12.0f %8s  new\n", tw, n, "-", c.AvgNs, "-")
			continue
		case !inC:
			fmt.Fprintf(w, "  %-*s %12.0f %12s %8s  MISSING\n", tw, n, b.AvgNs, "-", "-")
			continue
		}
		// Reuse the bench Delta so Regressed is literally the same code.
		d := bench.Delta{
			Base: bench.Series{NsPerOp: b.AvgNs},
			Cur:  bench.Series{NsPerOp: c.AvgNs},
		}
		if b.AvgNs > 0 {
			d.Ratio = c.AvgNs / b.AvgNs
		}
		flag := ""
		if d.Regressed(tolerance) {
			flag = "  REGRESSION"
			regressions++
		} else if d.Ratio > 0 && d.Ratio < 1/tolerance && b.AvgNs-c.AvgNs > bench.NoiseFloorNs {
			flag = "  improved"
		}
		fmt.Fprintf(w, "  %-*s %12.0f %12.0f %7.2fx%s\n", tw, n, b.AvgNs, c.AvgNs, d.Ratio, flag)
	}

	hists := union(sortedKeys(base.Histograms), sortedKeys(cur.Histograms))
	hw := nameWidth(hists, 20)
	fmt.Fprintf(w, "\nhistograms (%d)\n", len(hists))
	fmt.Fprintf(w, "  %-*s %12s %12s %12s %12s\n", hw, "name", "base p50", "cur p50", "base p99", "cur p99")
	for _, n := range hists {
		b, inB := base.Histograms[n]
		c, inC := cur.Histograms[n]
		switch {
		case !inB:
			fmt.Fprintf(w, "  %-*s %12s %12.0f %12s %12.0f  new\n", hw, n, "-", c.Quantile(0.50), "-", c.Quantile(0.99))
		case !inC:
			fmt.Fprintf(w, "  %-*s %12.0f %12s %12.0f %12s  MISSING\n", hw, n, b.Quantile(0.50), "-", b.Quantile(0.99), "-")
		default:
			fmt.Fprintf(w, "  %-*s %12.0f %12.0f %12.0f %12.0f\n",
				hw, n, b.Quantile(0.50), c.Quantile(0.50), b.Quantile(0.99), c.Quantile(0.99))
		}
	}
	return regressions
}
