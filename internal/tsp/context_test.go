package tsp

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"joinpebble/internal/faultinject"
)

// TestExactContextCanceledMidSearch: a canceled context aborts the
// search at a subset-loop checkpoint, well inside one instance.
func TestExactContextCanceledMidSearch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// 12 cities = 4096 subsets: several checkpoints, still instant.
	_, _, err := Exact(ctx, pathInstance(12))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExactContextUncanceledMatchesExact: a live context with a distant
// deadline changes nothing about the result.
func TestExactContextUncanceledMatchesExact(t *testing.T) {
	in := pathInstance(14)
	t1, c1, err := Exact(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	t2, c2, err := Exact(ctx, in)
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

// TestExactContextInjectedError: an error armed at the subset-loop
// checkpoint site surfaces verbatim from the search.
func TestExactContextInjectedError(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("injected search failure")
	faultinject.Arm(SiteExactExpand, faultinject.Fault{Err: boom})
	_, _, err := Exact(context.Background(), pathInstance(12))
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
	_, _, err := Exact(ctx, pathInstance(14))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt unwind", d)
	}
}
