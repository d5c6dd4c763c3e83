package bench

import (
	"os"
	"path/filepath"
	"testing"
)

func sampleReport(date string, legacy bool, ns ...float64) *Report {
	r := &Report{Schema: SchemaVersion, Date: date, GoVersion: "go1.x", GOMAXPROCS: 1, Legacy: legacy}
	for i, v := range ns {
		r.Series = append(r.Series, Series{
			Name:        []string{"a/one", "b/two", "c/three"}[i],
			Iterations:  100,
			NsPerOp:     v,
			AllocsPerOp: int64(i),
			Extra:       map[string]float64{"cost_ratio": 1.25},
		})
	}
	return r
}

func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_2026-01-02.json")
	want := sampleReport("2026-01-02", false, 100, 200, 300)
	if err := WriteReport(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != want.Date || got.Legacy != want.Legacy || len(got.Series) != len(want.Series) {
		t.Fatalf("round trip mangled header: %+v", got)
	}
	for i := range want.Series {
		g, w := got.Series[i], want.Series[i]
		if g.Name != w.Name || g.Iterations != w.Iterations || g.NsPerOp != w.NsPerOp ||
			g.AllocsPerOp != w.AllocsPerOp || g.BytesPerOp != w.BytesPerOp {
			t.Fatalf("series %d mangled: got %+v, want %+v", i, g, w)
		}
		if g.Extra["cost_ratio"] != 1.25 {
			t.Fatalf("series %d lost Extra: %+v", i, g)
		}
	}
}

func TestLoadReportRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_x.json")
	data := `{"schema": 999, "date": "2026-01-02", "series": []}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil {
		t.Fatal("LoadReport accepted wrong schema")
	}
}

// TestLoadReportRejectsRepeatedSeries: a report that holds a/x at 100
// ns and again at 10 ns would read as a 10x regression against itself,
// because Compare pairs series by name; LoadReport refuses it.
func TestLoadReportRejectsRepeatedSeries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	r := &Report{Schema: SchemaVersion, Date: "2026-01-02", Series: []Series{
		{Name: "a/x", Iterations: 1, NsPerOp: 100},
		{Name: "b/y", Iterations: 1, NsPerOp: 50},
		{Name: "a/x", Iterations: 1, NsPerOp: 10},
	}}
	if err := WriteReport(path, r); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil {
		t.Fatal("LoadReport accepted a report that repeats series a/x")
	}
}

// TestLatestReportSkipsLegacyAndSelf pins the baseline auto-pick rules:
// newest first, never a -legacy report, never the file being written.
func TestLatestReportSkipsLegacyAndSelf(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *Report) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := WriteReport(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old := write("BENCH_2026-01-01.json", sampleReport("2026-01-01", false, 100))
	write("BENCH_2026-01-02-legacy.json", sampleReport("2026-01-02", true, 500))
	cur := write("BENCH_2026-01-03.json", sampleReport("2026-01-03", false, 90))

	path, r, err := LatestReport(dir, cur)
	if err != nil {
		t.Fatal(err)
	}
	if path != old || r == nil || r.Date != "2026-01-01" {
		t.Fatalf("LatestReport picked %q (%+v), want %q", path, r, old)
	}

	// With no usable candidates: not an error, just absent.
	empty := t.TempDir()
	path, r, err = LatestReport(empty, "")
	if err != nil || path != "" || r != nil {
		t.Fatalf("empty dir: got %q,%v,%v", path, r, err)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := sampleReport("2026-01-01", false, 100, 200, 300)
	cur := sampleReport("2026-01-02", false, 150, 190, 300) // a/one +50%
	cur.Series[2].Name = "d/renamed"                        // c/three vanished, d appeared

	c := Compare(base, cur)
	if len(c.Deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(c.Deltas))
	}
	reg := c.Regressions(1.30)
	if len(reg) != 1 || reg[0].Name != "a/one" {
		t.Fatalf("regressions = %+v, want just a/one", reg)
	}
	if reg[0].Ratio < 1.49 || reg[0].Ratio > 1.51 {
		t.Fatalf("a/one ratio = %v, want 1.5", reg[0].Ratio)
	}
	if len(c.Regressions(1.60)) != 0 {
		t.Fatal("tolerance 1.60 should absorb a +50% slowdown")
	}
	// Sub-noise-floor absolute deltas never regress, whatever the ratio:
	// a 0.6 -> 0.9 ns swing is host frequency, not code.
	nano := Compare(sampleReport("2026-01-01", false, 0.6), sampleReport("2026-01-02", false, 0.9))
	if reg := nano.Regressions(1.30); len(reg) != 0 {
		t.Fatalf("sub-floor delta flagged as regression: %+v", reg)
	}
	if len(c.Gone) != 1 || c.Gone[0] != "c/three" {
		t.Fatalf("Gone = %v, want [c/three]", c.Gone)
	}
	if len(c.Added) != 1 || c.Added[0] != "d/renamed" {
		t.Fatalf("Added = %v, want [d/renamed]", c.Added)
	}
	if out := FormatComparison(c, 1.30); out == "" {
		t.Fatal("FormatComparison returned nothing")
	}
}

// TestPerfSuiteShape guards the regression harness itself: the suite
// must expose a sufficiently large, duplicate-free series name set —
// otherwise before/after JSONs silently stop being comparable.
func TestPerfSuiteShape(t *testing.T) {
	names := map[string]bool{}
	for _, pc := range PerfSuite() {
		if pc.Name == "" || names[pc.Name] {
			t.Fatalf("empty or duplicate series name %q", pc.Name)
		}
		if pc.Run == nil {
			t.Fatalf("series %q has no Run", pc.Name)
		}
		names[pc.Name] = true
	}
	if len(names) < 6 {
		t.Fatalf("suite has %d series, want >= 6", len(names))
	}
}
