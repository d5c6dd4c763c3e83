package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadReport writes arbitrary bytes to a file and loads it the way
// cmd/bench and obsreport diff load a baseline. LoadReport must return
// an error or a report, never panic; an accepted report must survive
// comparison against itself and a write and reload.
func FuzzLoadReport(f *testing.F) {
	sample, err := json.Marshal(sampleReport("2026-01-02", false, 100, 200, 300))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	f.Add([]byte(`{"schema":1,"series":[{"name":"a/one","ns_per_op":0},{"name":"a/one","ns_per_op":-5}]}`))
	f.Add([]byte(`{"schema":1,"metrics":{"timers":{"t":{"count":2,"buckets":[{"le":1,"n":-3}]}}}}`))
	f.Add([]byte(`{"schema":2}`))
	f.Add([]byte(`{"schema":null}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := LoadReport(in)
		if err != nil {
			return
		}
		c := Compare(r, r)
		_ = FormatComparison(c, 1.30)
		_ = c.FailureMessage(1.30)
		if err := WriteReport(out, r); err != nil {
			t.Fatalf("accepted report does not write back: %v", err)
		}
		back, err := LoadReport(out)
		if err != nil {
			t.Fatalf("rewritten report does not load: %v", err)
		}
		if len(back.Series) != len(r.Series) {
			t.Fatalf("round trip changed the series count: %d, was %d", len(back.Series), len(r.Series))
		}
	})
}
