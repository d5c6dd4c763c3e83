package solver

import (
	"context"
	"testing"

	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
)

// scopedSolve runs fn under a fresh request scope, closes the scope
// (rolling its metrics up into obs.Default) and returns the spans fn
// recorded.
func scopedSolve(t *testing.T, fn func(ctx context.Context)) []obs.SpanRecord {
	t.Helper()
	sc := obs.NewScope("solver/test")
	sc.SetRecorder(nil)
	fn(obs.WithScope(context.Background(), sc))
	sc.Close()
	return sc.Tracer().Records()
}

// TestSolveInstrumentation pins the observable surface of one solve: the
// counters a -metrics snapshot reports once its scope has rolled up, and
// the span tree the scope records, for a graph with two edge-bearing
// components plus an isolated vertex.
func TestSolveInstrumentation(t *testing.T) {
	g := graph.New(7, []graph.Edge{
		{U: 0, V: 1}, // component A: a path
		{U: 1, V: 2},
		{U: 3, V: 4}, // component B: a triangle
		{U: 4, V: 5},
		{U: 3, V: 5},
	})
	// vertex 6 is isolated: split must skip it, not count it as solved.

	before := obs.Default.Snapshot()
	spans := scopedSolve(t, func(ctx context.Context) {
		if _, _, err := SolveAndVerify(ctx, Greedy{}, g); err != nil {
			t.Fatal(err)
		}
	})
	after := obs.Default.Snapshot()

	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	if got := delta("solver/solves"); got != 1 {
		t.Errorf("solver/solves delta = %d, want 1", got)
	}
	if got := delta("solver/components_solved"); got != 2 {
		t.Errorf("solver/components_solved delta = %d, want 2", got)
	}

	byName := make(map[string][]obs.SpanRecord)
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
	builds := byName["scheme_build"]
	if len(builds) != 1 {
		t.Fatalf("got %d scheme_build spans, want 1", len(builds))
	}
	if b := builds[0]; b.Parent != root.ID || b.Depth != 1 {
		t.Errorf("scheme_build span parent=%d depth=%d, want parent=%d depth=1", b.Parent, b.Depth, root.ID)
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

// TestSolveUntracedNoSpans confirms unscoped work records nothing: a
// context without a scope yields a nil span, and solving under it (the
// nil-receiver span API) does not panic.
func TestSolveUntracedNoSpans(t *testing.T) {
	ctx := context.Background()
	if sp := obs.StartSpanCtx(ctx, "solver/untraced"); sp != nil {
		t.Fatalf("unscoped StartSpanCtx returned a live span %v", sp)
	}
	g := graph.New(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if _, _, err := SolveAndVerify(ctx, Approx125{}, g); err != nil {
		t.Fatal(err)
	}
}

// TestDecideCounters checks the decision ladder accounts for its
// outcomes: a K below the m lower bound must settle on the first rung.
func TestDecideCounters(t *testing.T) {
	g := graph.New(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})

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
	// A hub with legs of one, one and two edges: L(G) has a Hamiltonian
	// path, but the walk jumps once and its lower bound is 0, so neither
	// rung returns the walk and the later phases run too.
	g := graph.New(5, []graph.Edge{{U: 0, V: 3}, {U: 0, V: 4}, {U: 1, V: 3}, {U: 2, V: 3}})
	// K_{2,2}: complete bipartite, for the equijoin solver.
	k22 := graph.New(4, []graph.Edge{{U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}})
	spans := scopedSolve(t, func(ctx context.Context) {
		for _, s := range []Solver{Approx125{}, Exact{}} {
			if _, err := s.Solve(ctx, g); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
		}
		if _, err := (Equijoin{}).Solve(ctx, k22); err != nil {
			t.Fatalf("equijoin: %v", err)
		}
	})
	got := make(map[string]bool)
	for _, s := range spans {
		got[s.Name] = true
	}
	for _, want := range []string{
		"approx-1.25", "exact", "equijoin",
		"component_solve", "scheme_build",
		"walk", "path_partition", "held_karp", "zigzag_order",
	} {
		if !got[want] {
			t.Errorf("span %q missing from trace; got %v", want, got)
		}
	}
}
