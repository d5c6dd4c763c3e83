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

// joingenBin is the compiled command under test; see cmd/pebble's golden
// tests for the pattern.
var joingenBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "joingen-golden")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	joingenBin = filepath.Join(dir, "joingen")
	if out, err := exec.Command("go", "build", "-o", joingenBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building joingen: %v\n%s", err, out)
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

// small keeps golden workloads tiny so the files stay reviewable.
var small = []string{"-left", "6", "-right", "6", "-seed", "1"}

func TestGoldenEquijoinGraph(t *testing.T) {
	out, err := exec.Command(joingenBin, append([]string{"-kind", "equijoin", "-domain", "3"}, small...)...).Output()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "equijoin_graph", out)
}

func TestGoldenEquijoinPlan(t *testing.T) {
	out, err := exec.Command(joingenBin, append([]string{"-kind", "equijoin", "-domain", "3", "-out", "plan"}, small...)...).Output()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "equijoin_plan", out)
}

func TestGoldenSpatialPlan(t *testing.T) {
	out, err := exec.Command(joingenBin, append([]string{"-kind", "spatial", "-span", "10", "-out", "plan"}, small...)...).Output()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "spatial_plan", out)
}

func TestGoldenContainmentRelations(t *testing.T) {
	out, err := exec.Command(joingenBin, append([]string{"-kind", "containment", "-universe", "12", "-out", "relations"}, small...)...).Output()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "containment_relations", out)
}

func TestGoldenSpiderDOT(t *testing.T) {
	out, err := exec.Command(joingenBin, "-kind", "spider", "-n", "3", "-out", "dot").Output()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "spider_dot", out)
}

func TestGoldenMetricsJSON(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "m.json")
	args := append([]string{"-kind", "equijoin", "-metrics", mpath}, small...)
	if out, err := exec.Command(joingenBin, args...).CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("-metrics output is not a snapshot: %v\n%s", err, raw)
	}
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, n := range names {
		fmt.Fprintf(&buf, "counter %s\n", n)
	}
	checkGolden(t, "metrics_names", buf.Bytes())
}

// TestGoldenSpiderSolve: -out solve runs the engine pipeline end to end
// on a generated instance (Spider G_3 routes exact and stays on it).
func TestGoldenSpiderSolve(t *testing.T) {
	out, err := exec.Command(joingenBin, "-kind", "spider", "-n", "3", "-out", "solve").Output()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "spider_solve", out)
}

// TestGoldenSpiderSolveDegraded: Spider G_12 has 24 edges in one
// component — past the exact budget — so forcing the exact solver
// degrades deterministically to the approximation rung, exit 0.
func TestGoldenSpiderSolveDegraded(t *testing.T) {
	out, err := exec.Command(joingenBin, "-kind", "spider", "-n", "12", "-out", "solve", "-solver", "exact").Output()
	if err != nil {
		t.Fatalf("degraded run must exit 0: %v", err)
	}
	checkGolden(t, "spider_solve_degraded", out)
}

// TestStrictSolveExitsNonZero: the same budget trip under -strict is a
// runtime failure carrying the solver sentinel.
func TestStrictSolveExitsNonZero(t *testing.T) {
	var stderr bytes.Buffer
	cmd := exec.Command(joingenBin, "-kind", "spider", "-n", "12", "-out", "solve", "-solver", "exact", "-strict")
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v", err)
	}
	if ee.ExitCode() != 1 {
		t.Fatalf("exit code %d, want 1 (stderr: %s)", ee.ExitCode(), stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("search budget exceeded")) {
		t.Fatalf("stderr must carry the budget sentinel: %q", stderr.String())
	}
}

// TestUsageErrorsExitTwo pins the shared CLI error contract for joingen.
func TestUsageErrorsExitTwo(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown kind":   {"-kind", "bogus"},
		"unknown output": {"-kind", "equijoin", "-out", "bogus"},
		"extra args":     {"-kind", "equijoin", "extra"},
		"leftmax 0":      {"-kind", "containment", "-leftmax", "0"},
	} {
		t.Run(name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(joingenBin, args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error, got %v", err)
			}
			if ee.ExitCode() != 2 {
				t.Fatalf("exit code %d, want 2 (stderr: %s)", ee.ExitCode(), stderr.String())
			}
			if !bytes.HasPrefix(stderr.Bytes(), []byte("joingen: ")) {
				t.Fatalf("stderr must name the command: %q", stderr.String())
			}
			if bytes.Count(stderr.Bytes(), []byte("\n")) != 1 {
				t.Fatalf("stderr must be one line: %q", stderr.String())
			}
		})
	}
}
