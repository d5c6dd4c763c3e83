package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"joinpebble/internal/engine/cmdutil"
	"joinpebble/internal/solver"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunOnSpiderFile(t *testing.T) {
	// Spider G_3: π̂ should be 8 (π = 7 = m + 1).
	path := writeTemp(t, "bipartite 4 3\ne 0 0\ne 1 0\ne 0 1\ne 2 1\ne 0 2\ne 3 2\n")
	var sb strings.Builder
	if err := run(&sb, "exact", true, false, -1, path); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"edges (m)       6", "cost π̂          8", "perfect         false", "scheme:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestRunGeneralGraph(t *testing.T) {
	path := writeTemp(t, "graph 4\ne 0 1\ne 1 2\ne 2 3\n")
	var sb strings.Builder
	if err := run(&sb, "auto", false, false, -1, path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "perfect         true") {
		t.Fatalf("path should pebble perfectly:\n%s", sb.String())
	}
}

func TestRunUnknownSolver(t *testing.T) {
	path := writeTemp(t, "graph 2\ne 0 1\n")
	var sb strings.Builder
	err := run(&sb, "bogus", false, false, -1, path)
	if err == nil {
		t.Fatal("unknown solver must error")
	}
	if !cmdutil.IsUsage(err) {
		t.Fatalf("unknown solver should be a usage error, got %v", err)
	}
}

func TestRunMissingFile(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "auto", false, false, -1, "/nonexistent/graph.txt"); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestRunEquijoinSolverRejectsHardGraph(t *testing.T) {
	path := writeTemp(t, "bipartite 4 3\ne 0 0\ne 1 0\ne 0 1\ne 2 1\ne 0 2\ne 3 2\n")
	var sb strings.Builder
	if err := run(&sb, "equijoin", false, true, -1, path); err == nil {
		t.Fatal("strict equijoin solver must reject the spider")
	}
	// Without -strict, the structure rejection is a degradable cause: the
	// run completes on a lower rung and says so.
	sb.Reset()
	if err := run(&sb, "equijoin", false, false, -1, path); err != nil {
		t.Fatalf("non-strict run must degrade, got %v", err)
	}
	if !strings.Contains(sb.String(), "DEGRADED (equijoin→") {
		t.Fatalf("missing degradation provenance:\n%s", sb.String())
	}
}

func TestNamedSolversResolve(t *testing.T) {
	for _, name := range []string{"auto", "exact", "approx-1.25", "greedy", "cycle-cover", "equijoin", "matching", "naive"} {
		if _, err := solver.ByName(name); err != nil {
			t.Errorf("solver %q not found: %v", name, err)
		}
	}
}

func TestRunReportsRoute(t *testing.T) {
	// A path graph is not complete bipartite, fits the exact budget.
	path := writeTemp(t, "graph 4\ne 0 1\ne 1 2\ne 2 3\n")
	var sb strings.Builder
	if err := run(&sb, "auto", false, false, -1, path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "route           exact") {
		t.Fatalf("missing route line:\n%s", sb.String())
	}
}

func TestRunDecideMode(t *testing.T) {
	// Spider G_3 has π = 7.
	path := writeTemp(t, "bipartite 4 3\ne 0 0\ne 1 0\ne 0 1\ne 2 1\ne 0 2\ne 3 2\n")
	var sb strings.Builder
	if err := run(&sb, "auto", false, false, 6, path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<= 6 is false") {
		t.Fatalf("decide output: %s", sb.String())
	}
	sb.Reset()
	if err := run(&sb, "auto", false, false, 7, path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<= 7 is true") {
		t.Fatalf("decide output: %s", sb.String())
	}
}
