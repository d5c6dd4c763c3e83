package obs

import (
	"context"
	"sync"
	"testing"
)

// TestSpanTreeNesting builds a small span tree and checks the frozen
// records preserve hierarchy, order, attributes, and durations.
func TestSpanTreeNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("solve")
	root.SetInt("edges", 42)
	split := root.Start("component_split")
	split.End()
	comp := root.Start("component_solve")
	inner := comp.Start("path_partition")
	inner.End()
	comp.End()
	open := tr.Start("never_ended")
	_ = open
	root.End()

	recs := tr.Records()
	if len(recs) != 5 {
		t.Fatalf("got %d spans, want 5", len(recs))
	}
	byName := map[string]SpanRecord{}
	for i, rec := range recs {
		if rec.ID != i+1 {
			t.Fatalf("span %d has id %d; creation order should be 1-based and dense", i, rec.ID)
		}
		byName[rec.Name] = rec
	}
	if byName["solve"].Parent != 0 || byName["solve"].Depth != 0 {
		t.Fatalf("root mangled: %+v", byName["solve"])
	}
	for _, child := range []string{"component_split", "component_solve"} {
		if byName[child].Parent != byName["solve"].ID || byName[child].Depth != 1 {
			t.Fatalf("%s not nested under root: %+v", child, byName[child])
		}
	}
	if byName["path_partition"].Parent != byName["component_solve"].ID || byName["path_partition"].Depth != 2 {
		t.Fatalf("grandchild mangled: %+v", byName["path_partition"])
	}
	if byName["solve"].Attrs["edges"] != 42 {
		t.Fatalf("attr lost: %+v", byName["solve"])
	}
	if byName["solve"].DurNs < 0 {
		t.Fatal("ended root span has negative duration")
	}
	if byName["never_ended"].DurNs != -1 {
		t.Fatalf("unended span should report dur -1, got %d", byName["never_ended"].DurNs)
	}
	// Parents precede children in the records, so a single forward pass
	// can rebuild the tree.
	seen := map[int]bool{0: true}
	for _, rec := range recs {
		if !seen[rec.Parent] {
			t.Fatalf("span %d recorded before its parent %d", rec.ID, rec.Parent)
		}
		seen[rec.ID] = true
	}
}

// TestConcurrentChildren mirrors the solver's fan-out: workers create
// children of one parent concurrently. Run with -race.
func TestConcurrentChildren(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("solve")
	var wg sync.WaitGroup
	const workers, spansPer = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spansPer; i++ {
				sp := root.Start("component_solve")
				sp.SetInt("i", int64(i))
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := tr.Len(); got != 1+workers*spansPer {
		t.Fatalf("tracer has %d spans, want %d", got, 1+workers*spansPer)
	}
	for _, rec := range tr.Records() {
		if rec.Name == "component_solve" && rec.Parent != 1 {
			t.Fatalf("child has parent %d, want 1", rec.Parent)
		}
	}
}

// TestNoopTracerZeroAlloc pins the "free when off" guarantee: on a
// context without a scope, a full span lifecycle allocates nothing.
func TestNoopTracerZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := StartSpanCtx(ctx, "hot")
		child := sp.Start("inner")
		child.SetInt("k", 1)
		child.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("no-op tracer allocates %v per span lifecycle, want 0", allocs)
	}
}
