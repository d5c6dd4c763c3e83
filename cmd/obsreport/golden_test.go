package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"joinpebble/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// obsreportBin is the compiled command under test; like cmd/pebble's
// golden tests, exercising the real binary covers flag parsing and the
// exit-code contract end to end.
var obsreportBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "obsreport-golden")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	obsreportBin = filepath.Join(dir, "obsreport")
	if out, err := exec.Command("go", "build", "-o", obsreportBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building obsreport: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s (run with -update to accept):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestGoldenSnapshot(t *testing.T) {
	out, err := exec.Command(obsreportBin, "snapshot", "testdata/snapshot.json").Output()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot", out)
}

func TestGoldenTraceChrome(t *testing.T) {
	out, err := exec.Command(obsreportBin, "trace", "testdata/chrome.trace.json").Output()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_chrome", out)
}

// TestTraceRejectsJSONL: Chrome trace_event JSON is the only trace
// format, so a JSONL span stream is a parse error (exit 1), not a usage
// error.
func TestTraceRejectsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	jsonl := `{"id":1,"parent":0,"depth":0,"name":"engine/solve","start_ns":0,"dur_ns":10000}
{"id":2,"parent":1,"depth":1,"name":"exact","start_ns":1000,"dur_ns":8000}
`
	if err := os.WriteFile(path, []byte(jsonl), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(obsreportBin, "trace", path)
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("obsreport trace on JSONL: err = %v, want exit 1 (stderr: %s)", err, stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("obsreport: parse "+path)) {
		t.Fatalf("stderr must name the parse failure: %q", stderr.String())
	}
}

// TestGoldenDiffBenchReports pins the acceptance-path diff: the two
// committed BENCH_2026-08-09 reports (legacy vs current), series table
// plus embedded-metrics diff, byte-stable because every input is a
// committed file.
func TestGoldenDiffBenchReports(t *testing.T) {
	out, err := exec.Command(obsreportBin, "diff",
		"../../BENCH_2026-08-09-legacy.json", "../../BENCH_2026-08-09.json").Output()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diff_bench", out)
}

// writeSnap marshals an obs.Snapshot into dir and returns its path.
func writeSnap(t *testing.T, dir, name string, s obs.Snapshot) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffCheckExitCode: -check turns a timer slowdown beyond both the
// ratio tolerance and the bench noise floor into exit 1; within the
// noise floor it stays 0 even at a huge ratio — the comparator rule.
func TestDiffCheckExitCode(t *testing.T) {
	dir := t.TempDir()
	base := writeSnap(t, dir, "base.json", obs.Snapshot{
		Timers: map[string]obs.TimerSnapshot{
			"engine/run": {Count: 1, TotalNs: 100, AvgNs: 100, MinNs: 100, MaxNs: 100},
		},
	})
	slow := writeSnap(t, dir, "slow.json", obs.Snapshot{
		Timers: map[string]obs.TimerSnapshot{
			"engine/run": {Count: 1, TotalNs: 300, AvgNs: 300, MinNs: 300, MaxNs: 300},
		},
	})
	cmd := exec.Command(obsreportBin, "diff", "-check", base, slow)
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("regressed -check diff: err = %v, want exit 1", err)
	}

	// A 3x ratio on a sub-noise-floor timer is host jitter, not a
	// regression: 1ns -> 3ns stays exit 0.
	tiny := writeSnap(t, dir, "tiny.json", obs.Snapshot{
		Timers: map[string]obs.TimerSnapshot{
			"engine/run": {Count: 1, TotalNs: 1, AvgNs: 1, MinNs: 1, MaxNs: 1},
		},
	})
	tiny3 := writeSnap(t, dir, "tiny3.json", obs.Snapshot{
		Timers: map[string]obs.TimerSnapshot{
			"engine/run": {Count: 1, TotalNs: 3, AvgNs: 3, MinNs: 3, MaxNs: 3},
		},
	})
	if out, err := exec.Command(obsreportBin, "diff", "-check", tiny, tiny3).CombinedOutput(); err != nil {
		t.Fatalf("sub-noise-floor diff must exit 0: %v\n%s", err, out)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for name, args := range map[string][]string{
		"no subcommand":    {},
		"unknown":          {"bogus"},
		"diff mixed kinds": {"diff", "testdata/snapshot.json", "../../BENCH_2026-08-09.json"},
		"snapshot arity":   {"snapshot"},
	} {
		t.Run(name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(obsreportBin, args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error, got %v", err)
			}
			if ee.ExitCode() != 2 {
				t.Fatalf("exit code %d, want 2 (stderr: %s)", ee.ExitCode(), stderr.String())
			}
			if !bytes.HasPrefix(stderr.Bytes(), []byte("obsreport: ")) {
				t.Fatalf("stderr must name the command: %q", stderr.String())
			}
		})
	}
}
