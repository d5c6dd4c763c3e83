package main

import (
	"strings"
	"testing"

	"joinpebble/internal/engine/cmdutil"
	"joinpebble/internal/graph"
)

// cfg returns the flag defaults scaled down for tests, mirroring the
// defaults registered in main.
func cfg(kind, out string, n int) config {
	return config{
		kind: kind, out: out, seed: 1,
		left: 20, right: 20, domain: 5, skew: 0,
		universe: 100, leftMax: 3, rightMax: 8, correlated: true,
		span: 50, extent: 5, clusters: 0, n: n,
	}
}

func gen(t *testing.T, kind, out string, n int) string {
	t.Helper()
	var sb strings.Builder
	if err := run(&sb, cfg(kind, out, n)); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestGenerateSpiderGraph(t *testing.T) {
	out := gen(t, "spider", "graph", 4)
	b := readBipartite(t, out)
	if b.M() != 8 || b.NLeft() != 5 || b.NRight() != 4 {
		t.Fatalf("spider output wrong: %v", b)
	}
}

func TestGenerateEquijoinGraphParses(t *testing.T) {
	out := gen(t, "equijoin", "graph", 0)
	b := readBipartite(t, out)
	if b.NLeft() != 20 || b.NRight() != 20 {
		t.Fatalf("sides %dx%d", b.NLeft(), b.NRight())
	}
}

func TestGenerateRelationsOutput(t *testing.T) {
	out := gen(t, "containment", "relations", 0)
	if !strings.Contains(out, "relation R set") || !strings.Contains(out, "relation S set") {
		t.Fatalf("relations output missing headers:\n%s", out)
	}
}

func TestGenerateSpatialGraph(t *testing.T) {
	out := gen(t, "spatial", "graph", 0)
	readBipartite(t, out)
}

func TestGeneratePlanOutput(t *testing.T) {
	out := gen(t, "equijoin", "plan", 0)
	for _, want := range []string{"family     equijoin", "route      perfect", "solver     equijoin", "complete-bipartite"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in plan output:\n%s", want, out)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	var sb strings.Builder
	for name, c := range map[string]config{
		"unknown kind":        cfg("bogus", "graph", 3),
		"spider relations":    cfg("spider", "relations", 3),
		"unknown output kind": cfg("equijoin", "bogus", 3),
	} {
		err := run(&sb, c)
		if err == nil {
			t.Fatalf("%s must fail", name)
		}
		if !cmdutil.IsUsage(err) {
			t.Fatalf("%s: want usage error, got %v", name, err)
		}
	}
}

func TestGenerateDOT(t *testing.T) {
	out := gen(t, "spider", "dot", 3)
	for _, want := range []string{"graph JoinGraph {", "r0 -- s0;", "rankdir=LR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in DOT output:\n%s", want, out)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	if gen(t, "equijoin", "graph", 0) != gen(t, "equijoin", "graph", 0) {
		t.Fatal("same flags and seed must reproduce output")
	}
}

// readBipartite parses joingen's graph output, which is a join graph.
func readBipartite(t *testing.T, out string) *graph.Bipartite {
	t.Helper()
	v, err := graph.Read(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := v.(*graph.Bipartite)
	if !ok {
		t.Fatalf("output parsed as %T, want a bipartite graph", v)
	}
	return b
}
