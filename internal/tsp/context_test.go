package tsp

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"joinpebble/internal/faultinject"
	"joinpebble/internal/graph"
)

// jumpyInstance returns a TSP(1,2) instance with an empty good graph:
// every step costs 2, the jump-based pruning never bites before depth
// n-1, so branch-and-bound reliably expands far more than one checkpoint
// interval of nodes — the deterministic way to reach the mid-search
// cancellation paths without timing assumptions.
func jumpyInstance(n int) *Instance {
	return NewInstance(graph.New(n, nil))
}

// TestExactContextCanceledMidSearch: a canceled context aborts Held–Karp
// at a subset-loop checkpoint, well inside one instance.
func TestExactContextCanceledMidSearch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// 12 cities = 4096 subsets: several checkpoints, still instant.
	_, _, err := ExactContext(ctx, pathInstance(12))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExactContextUncanceledMatchesExact: threading a live context
// changes nothing about the result.
func TestExactContextUncanceledMatchesExact(t *testing.T) {
	in := pathInstance(14)
	t1, c1, err := Exact(in)
	if err != nil {
		t.Fatal(err)
	}
	t2, c2, err := ExactContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("costs diverge: %d vs %d", c1, c2)
	}
	if fmt.Sprint(t1) != fmt.Sprint(t2) {
		t.Fatalf("tours diverge: %v vs %v", t1, t2)
	}
}

// TestExactContextInjectedError: an error armed at the Held–Karp
// checkpoint site surfaces verbatim from the search.
func TestExactContextInjectedError(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("injected search failure")
	faultinject.Arm(SiteExactExpand, faultinject.Fault{Err: boom})
	_, _, err := ExactContext(context.Background(), pathInstance(12))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected error", err)
	}
	if faultinject.Hits(SiteExactExpand) == 0 {
		t.Fatal("checkpoint site never fired")
	}
}

// TestExactContextInjectedDelayTripsDeadline: a delay armed at the
// checkpoint site pushes the caller's deadline past expiry mid-search —
// the exact scenario the engine degrades on.
func TestExactContextInjectedDelayTripsDeadline(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(SiteExactExpand, faultinject.Fault{Delay: 30 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := ExactContext(ctx, pathInstance(14))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt unwind", d)
	}
}

// TestBranchAndBoundAnytimeOnCancel: a canceled context stops the search
// at a checkpoint but still returns the nearest-neighbour-seeded
// incumbent — a valid full tour — with exhausted=false.
func TestBranchAndBoundAnytimeOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := jumpyInstance(10)
	tour, cost, exhausted := BranchAndBoundContext(ctx, in, 0)
	if exhausted {
		t.Fatal("exhausted=true under a canceled context")
	}
	if err := in.Validate(tour); err != nil {
		t.Fatalf("incumbent tour invalid: %v", err)
	}
	if want := in.Cost(tour); cost != want {
		t.Fatalf("reported cost %d, tour costs %d", cost, want)
	}
}

// TestBranchAndBoundInjectedAbort: an error armed at the node-expansion
// site aborts the search like a cancellation, incumbent intact.
func TestBranchAndBoundInjectedAbort(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(SiteBnBExpand, faultinject.Fault{Err: errors.New("abort")})
	in := jumpyInstance(10)
	tour, _, exhausted := BranchAndBoundContext(context.Background(), in, 0)
	if exhausted {
		t.Fatal("exhausted=true after injected abort")
	}
	if err := in.Validate(tour); err != nil {
		t.Fatalf("incumbent tour invalid: %v", err)
	}
	if faultinject.Fired(SiteBnBExpand) == 0 {
		t.Fatal("abort site never fired")
	}
}

// TestBranchAndBoundContextLiveMatches: a live context changes nothing.
func TestBranchAndBoundContextLiveMatches(t *testing.T) {
	in := pathInstance(9)
	t1, c1, ex1 := BranchAndBound(in, 0)
	t2, c2, ex2 := BranchAndBoundContext(context.Background(), in, 0)
	if c1 != c2 || ex1 != ex2 {
		t.Fatalf("results diverge: (%d,%v) vs (%d,%v)", c1, ex1, c2, ex2)
	}
	if fmt.Sprint(t1) != fmt.Sprint(t2) {
		t.Fatalf("tours diverge: %v vs %v", t1, t2)
	}
}
