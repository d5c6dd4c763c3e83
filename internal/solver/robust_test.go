package solver

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"joinpebble/internal/family"
	"joinpebble/internal/faultinject"
	"joinpebble/internal/graph"
	"joinpebble/internal/tsp"
)

// pathGraph returns the path on n vertices: n-1 edges, one component.
func pathGraph(n int) *graph.Graph {
	var gEdges []graph.Edge
	for v := 1; v < n; v++ {
		gEdges = append(gEdges, graph.Edge{U: v - 1, V: v})
	}
	return graph.New(n, gEdges)
}

// manyComponents returns k disjoint 4-cycles: k components, 4k edges.
func manyComponents(k int) *graph.Graph {
	out := graph.New(0, nil)
	for i := 0; i < k; i++ {
		c := graph.New(4, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0},
		})
		out = graph.DisjointUnion(out, c)
	}
	return out
}

// TestComponentPanicRecovered: a panic inside a component solve comes
// back as a *PanicError wrapping ErrPanic with the stack attached — the
// process survives and the caller can degrade.
func TestComponentPanicRecovered(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(SiteComponent, faultinject.Fault{Panic: "kaboom"})
	_, err := Approx125{}.Solve(context.Background(), pathGraph(6))
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T does not unwrap to *PanicError", err)
	}
	if pe.Value != "kaboom" {
		t.Fatalf("panic value %v, want kaboom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	if pe.Solver != "approx-1.25" {
		t.Fatalf("PanicError.Solver = %q", pe.Solver)
	}
}

// TestComponentPanicStopsSequentialWalk: components are solved one after
// another, so the first component's panic ends the walk — no later
// component of the 60 reaches the site — and the recovered panic is the
// error reported.
func TestComponentPanicStopsSequentialWalk(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(SiteComponent, faultinject.Fault{Panic: "kaboom", Times: 1})
	_, err := Greedy{}.Solve(context.Background(), manyComponents(60))
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	if h := faultinject.Hits(SiteComponent); h != 1 {
		t.Fatalf("site hit %d times, want 1: the walk went on past the panic", h)
	}
}

// TestComponentPanicRecoveredSequential covers the multi-component walk
// and the single-component fast path.
func TestComponentPanicRecoveredSequential(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(SiteComponent, faultinject.Fault{Panic: 42, Times: 1})
	_, err := Greedy{}.Solve(context.Background(), manyComponents(3))
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("multi-component sequential: err = %v, want ErrPanic", err)
	}
	faultinject.Arm(SiteComponent, faultinject.Fault{Panic: 42, Times: 1})
	_, err = Greedy{}.Solve(context.Background(), pathGraph(5))
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("single-component fast path: err = %v, want ErrPanic", err)
	}
}

// TestInjectedBudgetExhaustion: the exact rung's budget site forces an
// ErrBudgetExceeded on an instance of any size — the lever the engine
// degradation tests pull.
func TestInjectedBudgetExhaustion(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(SiteExactBudget, faultinject.Fault{
		Err: fmt.Errorf("%w: injected for test", ErrBudgetExceeded),
	})
	_, err := Exact{}.Solve(context.Background(), pathGraph(5))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestExactDeadlineMidComponent: a deadline that expires inside one
// component's exact search ends the solve with the deadline error in
// bounded wall time, not at the (nonexistent) next component boundary.
// A delay armed once at the search's checkpoint site outlasts the
// deadline, so the deadline expires mid-search however fast the host.
// The graph is Spider(11), 22 edges in one component: its walk jumps,
// so the rung cannot skip the search the way it does on a path.
func TestExactDeadlineMidComponent(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(tsp.SiteExactExpand, faultinject.Fault{Delay: 10 * time.Second, Times: 1})
	g := family.Spider(11).Graph() // 2^22-subset search
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Exact{}.Solve(ctx, g)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if n := faultinject.Fired(tsp.SiteExactExpand); n != 1 {
		t.Fatalf("checkpoint site fired %d times, want 1", n)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("mid-component cancellation took %v, want bounded unwind", elapsed)
	}
}

// TestDisarmedSitesChangeNothing: with no faults armed, a solve through
// every instrumented path is byte-identical to the pre-injection
// behavior — the sites are pure pass-throughs.
func TestDisarmedSitesChangeNothing(t *testing.T) {
	g := manyComponents(5)
	s1, c1, err := SolveAndVerify(context.Background(), Approx125{}, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	s2, c2, err := SolveAndVerify(context.Background(), Approx125{}, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 || fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Fatal("disarmed sites perturbed the solve")
	}
}
