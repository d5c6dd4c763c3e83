package solver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"joinpebble/internal/core"
	"joinpebble/internal/faultinject"
	"joinpebble/internal/graph"
)

// pathGraph returns the path on n vertices: n-1 edges, one component.
func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v-1, v)
	}
	return g
}

// manyComponents returns k disjoint 4-cycles: k components, 4k edges.
func manyComponents(k int) *graph.Graph {
	out := graph.New(0)
	for i := 0; i < k; i++ {
		c := graph.New(4)
		c.AddEdge(0, 1)
		c.AddEdge(1, 2)
		c.AddEdge(2, 3)
		c.AddEdge(3, 0)
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

// TestComponentPanicDrainsPool: after one worker panics, the pool stops
// handing out components — nowhere near all 60 components get solved —
// and the recovered panic is the error reported, not the cancellations
// the drain induced in sibling workers.
func TestComponentPanicDrainsPool(t *testing.T) {
	defer faultinject.Reset()
	prev := Parallelism
	Parallelism = 4
	defer func() { Parallelism = prev }()

	faultinject.Arm(SiteComponent, faultinject.Fault{Panic: "kaboom", Times: 1})
	_, err := Greedy{}.Solve(context.Background(), manyComponents(60))
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	// The first hit panicked; only in-flight workers may still have fired
	// the site before observing the drain.
	if h := faultinject.Hits(SiteComponent); h > 16 {
		t.Fatalf("site hit %d times after the drain, pool did not stop", h)
	}
}

// TestComponentPanicRecoveredSequential covers the Parallelism=1 path
// and the single-component fast path.
func TestComponentPanicRecoveredSequential(t *testing.T) {
	defer faultinject.Reset()
	prev := Parallelism
	Parallelism = 1
	defer func() { Parallelism = prev }()

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

// TestExactDeadlineMidComponent is the regression test for the
// cancellation gap this PR closes: tsp.Exact used to run uninterruptible
// once a component started, so a deadline expiring inside one big
// component was only noticed at the (nonexistent) next component
// boundary. Now the Held–Karp subset loop checks ctx at checkpoints: the
// solve must return the deadline error in bounded wall time, far below
// the multi-second full search on a 22-edge component.
func TestExactDeadlineMidComponent(t *testing.T) {
	g := pathGraph(23) // 22 edges, one component: 2^22-subset search
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Exact{}.Solve(ctx, g)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("mid-component cancellation took %v, want bounded unwind", elapsed)
	}
}

// TestExactBnBAnytime: with Anytime set, a node cap that stops the
// search yields the verified incumbent instead of ErrBudgetExceeded; the
// strict configuration still errors.
func TestExactBnBAnytime(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomConnectedGraph(rng, 14, 26, 0)

	if _, err := (ExactBnB{MaxNodes: 10}).Solve(context.Background(), g.Clone()); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("strict cap: err = %v, want ErrBudgetExceeded", err)
	}

	scheme, cost, err := SolveAndVerify(context.Background(), ExactBnB{MaxNodes: 10, Anytime: true}, g.Clone())
	if err != nil {
		t.Fatalf("anytime cap: %v", err)
	}
	if len(scheme) == 0 {
		t.Fatal("anytime cap returned an empty scheme")
	}
	if ub := core.UpperBound(g); cost > ub {
		t.Fatalf("anytime cost %d exceeds the universal bound %d", cost, ub)
	}
}

// TestExactBnBPreCanceled: an already-canceled context aborts before any
// component starts, anytime or not.
func TestExactBnBPreCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomConnectedGraph(rng, 16, 30, 0)
	canceled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := (ExactBnB{Anytime: true}).Solve(canceled, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("explicit cancel: err = %v, want context.Canceled", err)
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
