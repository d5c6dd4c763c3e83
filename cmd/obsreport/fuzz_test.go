package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"joinpebble/internal/bench"
)

// FuzzLoaders feeds arbitrary file contents through every obsreport
// decoder — the snapshot, bench report and Chrome trace loaders — and
// through the snapshot and trace subcommands that render what they
// load. Each must return an error or render, never panic.
func FuzzLoaders(f *testing.F) {
	for _, name := range []string{"testdata/snapshot.json", "testdata/chrome.trace.json"} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"traceEvents":[{"name":"a","ts":1e300,"dur":-1,"args":{"id":2,"parent":2}},{"name":"b","args":{"id":1,"parent":9}}]}`))
	f.Add([]byte(`{"timers":{"t":{"count":3,"min_ns":9,"max_ns":1,"buckets":[{"le":-1,"n":5}]}},"histograms":{"h":{"count":-1}}}`))
	f.Add([]byte(`{"schema":1,"date":"2026-01-02","gomaxprocs":1,"series":[{"name":"a/one","ns_per_op":100,"extra":{"slope":1}}],"metrics":{"counters":{"c":1},"timers":{"t":{"count":1,"total_ns":5,"avg_ns":5}}}}`))
	f.Add([]byte(`{"schema":1,"series":null,"metrics":null}`))
	f.Add([]byte(`{"traceEvents":null}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	path := filepath.Join(f.TempDir(), "in.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _ = loadSnapshot(path)
		_, _ = bench.LoadReport(path)
		_, _ = loadSpans(path)
		_ = runSnapshot(path, io.Discard)
		_ = runTrace(path, io.Discard)
	})
}
