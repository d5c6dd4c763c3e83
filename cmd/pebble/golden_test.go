package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"joinpebble/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// pebbleBin is the compiled command under test; golden tests exercise the
// real binary so flag parsing, exit codes and -metrics output are covered
// end to end.
var pebbleBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "pebble-golden")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pebbleBin = filepath.Join(dir, "pebble")
	if out, err := exec.Command("go", "build", "-o", pebbleBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building pebble: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
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

// normalizeMetrics reduces a -metrics JSON snapshot to its sorted metric
// names: values are timing- and iteration-dependent, the instrument set is
// the stable contract.
func normalizeMetrics(t *testing.T, raw []byte) []byte {
	t.Helper()
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("-metrics output is not a snapshot: %v\n%s", err, raw)
	}
	var buf bytes.Buffer
	section := func(kind string, names []string) {
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&buf, "%s %s\n", kind, n)
		}
	}
	counters := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		counters = append(counters, n)
	}
	timers := make([]string, 0, len(snap.Timers))
	for n := range snap.Timers {
		timers = append(timers, n)
	}
	histograms := make([]string, 0, len(snap.Histograms))
	for n := range snap.Histograms {
		histograms = append(histograms, n)
	}
	section("counter", counters)
	section("timer", timers)
	section("histogram", histograms)
	return buf.Bytes()
}

// normalizeTrace reduces a Chrome trace to its structure — span id,
// parentage, track, name, and integer attributes. Timestamps and
// durations vary per run; the span forest of a fixed sequential solve
// does not.
func normalizeTrace(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc obs.ChromeTrace
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace-out file is not chrome trace JSON: %v\n%s", err, raw)
	}
	var buf bytes.Buffer
	for _, ev := range doc.TraceEvents {
		fmt.Fprintf(&buf, "id=%d parent=%d tid=%d %s", ev.Args["id"], ev.Args["parent"], ev.Tid, ev.Name)
		keys := make([]string, 0, len(ev.Args))
		for k := range ev.Args {
			if k != "id" && k != "parent" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&buf, " %s=%d", k, ev.Args[k])
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestGoldenTraceOut pins the span forest a fixed solve emits through
// -trace-out: one Chrome trace per solve scope plus the flight recorder
// dump, with stable structure across runs.
func TestGoldenTraceOut(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command(pebbleBin, "-solver", "exact", "-trace-out", dir, "testdata/spider3.txt").CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "scope-*.trace.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("scope traces = %v (err %v), want exactly one", matches, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_spider", normalizeTrace(t, raw))

	frRaw, err := os.ReadFile(filepath.Join(dir, "flightrecorder.json"))
	if err != nil {
		t.Fatalf("flight recorder dump missing: %v", err)
	}
	var snap obs.FlightRecorderSnapshot
	if err := json.Unmarshal(frRaw, &snap); err != nil {
		t.Fatalf("flightrecorder.json is not a snapshot: %v", err)
	}
	if snap.Total != 1 || len(snap.Recent) != 1 || snap.Recent[0].Name != "engine/solve" {
		t.Fatalf("flight recorder = %+v, want the one solve", snap)
	}
}

func TestGoldenSolveSpider(t *testing.T) {
	out, err := exec.Command(pebbleBin, "-solver", "exact", "-scheme", "testdata/spider3.txt").Output()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "solve_spider", out)
}

func TestGoldenSolvePathAuto(t *testing.T) {
	out, err := exec.Command(pebbleBin, "testdata/path4.txt").Output()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "solve_path_auto", out)
}

func TestGoldenDecide(t *testing.T) {
	out, err := exec.Command(pebbleBin, "-decide", "7", "testdata/spider3.txt").Output()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "decide_spider", out)
}

func TestGoldenMetricsJSON(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "m.json")
	if out, err := exec.Command(pebbleBin, "-metrics", mpath, "testdata/spider3.txt").CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_names", normalizeMetrics(t, raw))
}

// TestGoldenDegraded: forcing the exact solver onto a 40-edge component
// trips the exact-search budget deterministically; without -strict the run
// completes on the approximation rung, exits 0, and prints the DEGRADED
// provenance line.
func TestGoldenDegraded(t *testing.T) {
	out, err := exec.Command(pebbleBin, "-solver", "exact", "testdata/path41.txt").Output()
	if err != nil {
		t.Fatalf("degraded run must exit 0: %v", err)
	}
	checkGolden(t, "solve_degraded", out)
}

// TestStrictExitsNonZero: -strict turns the same budget trip into a
// non-zero exit with the solver sentinel text on stderr, matchable by
// scripts that must not accept weaker bounds.
func TestStrictExitsNonZero(t *testing.T) {
	var stderr bytes.Buffer
	cmd := exec.Command(pebbleBin, "-strict", "-solver", "exact", "testdata/path41.txt")
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v", err)
	}
	if ee.ExitCode() != 1 {
		t.Fatalf("exit code %d, want 1", ee.ExitCode())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("search budget exceeded")) {
		t.Fatalf("stderr must carry the budget sentinel: %q", stderr.String())
	}
}

// TestUsageErrorsExitTwo pins the CLI error contract: usage errors exit 2
// with a message on stderr, runtime errors exit 1.
func TestUsageErrorsExitTwo(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		code int
	}{
		"unknown solver": {[]string{"-solver", "bogus", "testdata/spider3.txt"}, 2},
		"extra args":     {[]string{"testdata/spider3.txt", "extra"}, 2},
		"missing file":   {[]string{"/nonexistent/graph.txt"}, 1},
	} {
		t.Run(name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(pebbleBin, tc.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error, got %v", err)
			}
			if ee.ExitCode() != tc.code {
				t.Fatalf("exit code %d, want %d (stderr: %s)", ee.ExitCode(), tc.code, stderr.String())
			}
			if !bytes.HasPrefix(stderr.Bytes(), []byte("pebble: ")) {
				t.Fatalf("stderr must name the command: %q", stderr.String())
			}
		})
	}
}
