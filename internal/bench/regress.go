package bench

// Regression harness: a small schema for persisting benchmark results as
// BENCH_<date>.json files plus a comparator that flags slowdowns against
// the previous report. cmd/bench is the driver; EXPERIMENTS tables (the
// rest of this package) verify *claims*, this file verifies *speed*.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"joinpebble/internal/obs"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump on incompatible
// changes so Compare can refuse to diff across schemas.
const SchemaVersion = 1

// Series is one pinned benchmark's measurement. Names are stable
// identifiers of the form "<operation>/<workload>" — comparisons match on
// them, so renaming a series silently drops its regression coverage.
type Series struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Extra carries workload-derived scalars that should stay constant
	// across runs — e.g. a solver's cost ratio π̂/m — so a perf win that
	// quietly worsens solution quality is visible in the same file.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the on-disk BENCH_<date>.json document.
type Report struct {
	Schema     int    `json:"schema"`
	Date       string `json:"date"` // YYYY-MM-DD
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Legacy marks a committed report of the pre-optimization code paths
	// (map-backed line graphs, unfrozen lookups, sequential solving), the
	// "before" arm of a before/after pair. Legacy reports are never
	// auto-picked as baselines.
	Legacy bool `json:"legacy,omitempty"`
	// Smoke marks a reduced-size kernel smoke run (cmd/bench -smoke).
	// Smoke reports use distinct series names and are never auto-picked
	// as baselines.
	Smoke bool `json:"smoke,omitempty"`
	// Serve marks a service-level load-generator report (cmd/loadgen):
	// end-to-end HTTP latencies and outcome fractions, not kernel
	// timings. Serve reports are never auto-picked as baselines.
	Serve  bool     `json:"serve,omitempty"`
	Series []Series `json:"series"`
	// Metrics is the instrumentation snapshot taken after the suite ran —
	// counters like pebble acquisitions and claw checks alongside the
	// timings, so a report records what the suite did, not just how fast.
	// Optional; omitted by readers of older reports. Its presence does not
	// bump SchemaVersion because consumers ignore unknown fields.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Find returns the named series, if present.
func (r *Report) Find(name string) (Series, bool) {
	for _, s := range r.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// WriteReport writes r as indented JSON to path. The write is atomic
// (temp file + rename), so an interrupted run can never leave a truncated
// BENCH_*.json that a later run would pick as its baseline and fail to
// parse.
func WriteReport(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal report: %w", err)
	}
	data = append(data, '\n')
	if err := obs.AtomicWriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: write report: %w", err)
	}
	return nil
}

// LoadReport reads a BENCH_*.json file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read report: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("bench: %s has schema %d, want %d", path, r.Schema, SchemaVersion)
	}
	return &r, nil
}

// LatestReport finds the most recent non-legacy, non-smoke, non-serve
// BENCH_*.json
// in dir,
// excluding the file named skip (the report about to be written). File
// names sort chronologically because the date is zero-padded ISO. It
// returns ("", nil, nil) when no prior report exists — the first run of a
// fresh checkout has nothing to compare against, which is not an error.
func LatestReport(dir, skip string) (string, *Report, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", nil, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(matches)))
	for _, path := range matches {
		if filepath.Clean(path) == filepath.Clean(skip) {
			continue
		}
		r, err := LoadReport(path)
		if err != nil {
			return "", nil, err
		}
		if r.Legacy || r.Smoke || r.Serve {
			continue
		}
		return path, r, nil
	}
	return "", nil, nil
}

// Delta is one series' before/after comparison.
type Delta struct {
	Name  string
	Base  Series
	Cur   Series
	Ratio float64 // cur ns / base ns; > 1 means slower
}

// noiseFloorNs is the absolute slowdown a series must show, on top of
// the ratio tolerance, before it counts as a regression. Sub-10ns
// series (a disarmed fault-site Fire, a frozen HasEdge probe) swing
// ±30% with host CPU frequency alone; a pure ratio gate on a 0.6ns
// measurement detects the machine's mood, not the code. Algorithmic
// regressions on series that fast still surface through their callers
// (every solver and scan series runs these ops millions of times).
const noiseFloorNs = 5.0

// NoiseFloorNs exports the comparator's absolute noise floor so other
// diff tools (cmd/obsreport) apply the identical significance rule
// instead of inventing a second definition of "regressed".
const NoiseFloorNs = noiseFloorNs

// Regressed reports whether the series slowed down beyond tolerance
// (e.g. tolerance 1.30 allows up to +30% before failing) by more than
// the absolute noise floor.
func (d Delta) Regressed(tolerance float64) bool {
	return d.Ratio > tolerance && d.Cur.NsPerOp-d.Base.NsPerOp > noiseFloorNs
}

// Comparison is the outcome of diffing a current report against a base.
type Comparison struct {
	Deltas []Delta  // series present in both, base order
	Added  []string // series only in cur (new coverage, not a failure)
	Gone   []string // series only in base (lost coverage — suspicious)
}

// Regressions returns the deltas exceeding tolerance, slowest first.
func (c *Comparison) Regressions(tolerance float64) []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Regressed(tolerance) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
	return out
}

// FailureMessage summarizes every series that regressed beyond tolerance
// in one message, slowest first, so a failing run names all offenders at
// once instead of making the caller re-run after each fix. Returns ""
// when nothing regressed.
func (c *Comparison) FailureMessage(tolerance float64) string {
	reg := c.Regressions(tolerance)
	if len(reg) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d series regressed beyond %.2fx:", len(reg), tolerance)
	for _, d := range reg {
		fmt.Fprintf(&sb, "\n  %s: %.0f -> %.0f ns/op (%.2fx > %.2fx)",
			d.Name, d.Base.NsPerOp, d.Cur.NsPerOp, d.Ratio, tolerance)
	}
	return sb.String()
}

// Compare diffs cur against base by series name.
func Compare(base, cur *Report) *Comparison {
	c := &Comparison{}
	inCur := make(map[string]bool, len(cur.Series))
	for _, s := range cur.Series {
		inCur[s.Name] = true
	}
	for _, bs := range base.Series {
		cs, ok := cur.Find(bs.Name)
		if !ok {
			c.Gone = append(c.Gone, bs.Name)
			continue
		}
		ratio := 0.0
		if bs.NsPerOp > 0 {
			ratio = cs.NsPerOp / bs.NsPerOp
		}
		c.Deltas = append(c.Deltas, Delta{Name: bs.Name, Base: bs, Cur: cs, Ratio: ratio})
	}
	inBase := make(map[string]bool, len(base.Series))
	for _, s := range base.Series {
		inBase[s.Name] = true
	}
	for _, s := range cur.Series {
		if !inBase[s.Name] {
			c.Added = append(c.Added, s.Name)
		}
	}
	return c
}

// FormatComparison renders a fixed-width before/after table.
func FormatComparison(c *Comparison, tolerance float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-40s %14s %14s %8s\n", "series", "base ns/op", "cur ns/op", "ratio")
	for _, d := range c.Deltas {
		flag := ""
		if d.Regressed(tolerance) {
			flag = "  REGRESSION"
		} else if d.Ratio > 0 && d.Ratio < 1/tolerance {
			flag = "  improved"
		}
		fmt.Fprintf(&sb, "%-40s %14.0f %14.0f %7.2fx%s\n", d.Name, d.Base.NsPerOp, d.Cur.NsPerOp, d.Ratio, flag)
	}
	for _, name := range c.Added {
		fmt.Fprintf(&sb, "%-40s %14s %14s %8s  new\n", name, "-", "-", "-")
	}
	for _, name := range c.Gone {
		fmt.Fprintf(&sb, "%-40s %14s %14s %8s  MISSING\n", name, "-", "-", "-")
	}
	return sb.String()
}
