package solver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
)

// spanLine mirrors the JSONL record trace.WriteJSONL emits.
type spanLine struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Depth  int              `json:"depth"`
	Name   string           `json:"name"`
	DurNs  int64            `json:"dur_ns"`
	Attrs  map[string]int64 `json:"attrs"`
}

func readSpans(t *testing.T, tr *obs.Tracer) []spanLine {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	var out []spanLine
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s spanLine
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, s)
	}
	return out
}

// TestSolveInstrumentation pins the observable surface of one solve: the
// counters a -metrics snapshot reports and the span tree a -trace run
// records, for a graph with two edge-bearing components plus an isolated
// vertex.
func TestSolveInstrumentation(t *testing.T) {
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	g := graph.New(7)
	g.AddEdge(0, 1) // component A: a path
	g.AddEdge(1, 2)
	g.AddEdge(3, 4) // component B: a triangle
	g.AddEdge(4, 5)
	g.AddEdge(3, 5)
	// vertex 6 is isolated: split must skip it, not count it as solved.

	before := obs.Default.Snapshot()
	if _, _, err := SolveAndVerify(context.Background(), Greedy{}, g); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot()

	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	if got := delta("solver/solves"); got != 1 {
		t.Errorf("solver/solves delta = %d, want 1", got)
	}
	if got := delta("solver/components_solved"); got != 2 {
		t.Errorf("solver/components_solved delta = %d, want 2", got)
	}
	if got := delta("solver/workers_used"); got < 1 || got > 2 {
		t.Errorf("solver/workers_used delta = %d, want 1..2", got)
	}

	spans := readSpans(t, tr)
	byName := make(map[string][]spanLine)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	roots := byName["greedy"]
	if len(roots) != 1 {
		t.Fatalf("got %d root spans named greedy, want 1: %+v", len(roots), spans)
	}
	root := roots[0]
	if root.Depth != 0 || root.Parent != 0 {
		t.Errorf("root span depth=%d parent=%d, want 0/0", root.Depth, root.Parent)
	}
	if root.Attrs["edges"] != int64(g.M()) {
		t.Errorf("root edges attr = %d, want %d", root.Attrs["edges"], g.M())
	}
	if root.DurNs < 0 {
		t.Errorf("root span not ended: dur_ns = %d", root.DurNs)
	}
	for _, phase := range []string{"component_split", "scheme_build"} {
		ps := byName[phase]
		if len(ps) != 1 {
			t.Fatalf("got %d %s spans, want 1", len(ps), phase)
		}
		if ps[0].Parent != root.ID || ps[0].Depth != 1 {
			t.Errorf("%s span parent=%d depth=%d, want parent=%d depth=1",
				phase, ps[0].Parent, ps[0].Depth, root.ID)
		}
	}
	solves := byName["component_solve"]
	if len(solves) != 2 {
		t.Fatalf("got %d component_solve spans, want 2", len(solves))
	}
	var edgeCounts []int64
	for _, s := range solves {
		if s.Parent != root.ID {
			t.Errorf("component_solve parent = %d, want %d", s.Parent, root.ID)
		}
		edgeCounts = append(edgeCounts, s.Attrs["edges"])
	}
	if a, b := edgeCounts[0], edgeCounts[1]; a+b != int64(g.M()) || (a != 2 && a != 3) {
		t.Errorf("component_solve edge attrs = %v, want {2,3}", edgeCounts)
	}
	// The nearest_neighbor phase spans hang off each component's span.
	if nn := byName["nearest_neighbor"]; len(nn) != 2 {
		t.Errorf("got %d nearest_neighbor spans, want 2", len(nn))
	}
}

// TestSolveUntracedNoSpans confirms solving without an active tracer
// records nothing (and, with the nil-receiver span API, does not panic).
func TestSolveUntracedNoSpans(t *testing.T) {
	obs.SetTracer(nil)
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if _, _, err := SolveAndVerify(context.Background(), Approx125{}, g); err != nil {
		t.Fatal(err)
	}
	if tr := obs.ActiveTracer(); tr != nil {
		t.Fatalf("active tracer is %v, want nil", tr)
	}
}

// TestDecideCounters checks the decision ladder accounts for its
// outcomes: a K below the m lower bound must settle on the first rung.
func TestDecideCounters(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)

	before := obs.Default.Snapshot()
	ok, err := Decide(context.Background(), g, g.M()-1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Decide(g, m-1) = true, want false (Lemma 2.3: π >= m)")
	}
	after := obs.Default.Snapshot()
	if d := after.Counters["solver/decide/calls"] - before.Counters["solver/decide/calls"]; d != 1 {
		t.Errorf("solver/decide/calls delta = %d, want 1", d)
	}
	if d := after.Counters["solver/decide/by_lower_bound"] - before.Counters["solver/decide/by_lower_bound"]; d != 1 {
		t.Errorf("solver/decide/by_lower_bound delta = %d, want 1", d)
	}
}

// TestSpanNamesAreStable pins the phase-span vocabulary: renames break
// trace consumers the same way metric renames break dashboards.
func TestSpanNamesAreStable(t *testing.T) {
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	// K_{2,2}: complete bipartite, so the equijoin solver accepts it too.
	g := graph.New(4)
	for _, e := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		g.AddEdge(e[0], e[1])
	}
	for _, s := range []Solver{Approx125{}, Exact{}, Equijoin{}} {
		if _, err := s.Solve(context.Background(), g); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
	got := make(map[string]bool)
	for _, s := range readSpans(t, tr) {
		got[s.Name] = true
	}
	for _, want := range []string{
		"approx-1.25", "exact", "equijoin",
		"component_split", "component_solve", "scheme_build",
		"line_graph", "path_partition", "held_karp", "zigzag_order",
	} {
		if !got[want] {
			t.Errorf("span %q missing from trace; got %v", want, got)
		}
	}
}
