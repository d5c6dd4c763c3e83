package obs

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// scopeTestVars binds the metric names this file records through; bound
// once so every test shares the global side of the vars.
var (
	cvScope = ScopedCounter("obstest/scope/ops")
	tvScope = ScopedTimer("obstest/scope/latency")
	hvScope = ScopedHistogram("obstest/scope/sizes", Pow2Buckets(8))
)

func TestScopeDisjointAndRollup(t *testing.T) {
	globalBefore := cvScope.In(context.Background()).Value()

	s1 := NewScope("test/solve")
	s2 := NewScope("test/solve")
	s1.SetRecorder(nil)
	s2.SetRecorder(nil)
	ctx1 := WithScope(context.Background(), s1)
	ctx2 := WithScope(context.Background(), s2)

	cvScope.Add(ctx1, 3)
	cvScope.Add(ctx2, 5)
	tvScope.Observe(ctx1, 10*time.Nanosecond)
	hvScope.Observe(ctx2, 4)

	if got := s1.Registry().Counter("obstest/scope/ops").Value(); got != 3 {
		t.Fatalf("scope1 counter = %d, want 3", got)
	}
	if got := s2.Registry().Counter("obstest/scope/ops").Value(); got != 5 {
		t.Fatalf("scope2 counter = %d, want 5", got)
	}
	if got := s2.Registry().Timer("obstest/scope/latency").Count(); got != 0 {
		t.Fatalf("scope2 timer count = %d, want 0 (disjoint from scope1)", got)
	}
	// Nothing reaches the global registry while the scopes are open.
	if got := cvScope.In(context.Background()).Value(); got != globalBefore {
		t.Fatalf("global counter moved to %d while scopes open, want %d", got, globalBefore)
	}

	s1.Close()
	s2.Close()
	if got, want := cvScope.In(context.Background()).Value(), globalBefore+8; got != want {
		t.Fatalf("global counter after rollup = %d, want %d (sum of scopes)", got, want)
	}
}

func TestScopeRollupMergesTimers(t *testing.T) {
	tm := Default.Timer("obstest/scope/latency")
	before := tm.Count()

	s := NewScope("test/solve")
	s.SetRecorder(nil)
	ctx := WithScope(context.Background(), s)
	for d := 1; d <= 16; d++ {
		tvScope.Observe(ctx, time.Duration(d))
	}
	s.Close()

	if got, want := tm.Count(), before+16; got != want {
		t.Fatalf("global timer count = %d, want %d", got, want)
	}
}

// TestScopedHistogramTakesGlobalLayout binds a name its package already
// bound with other bounds: the scope-side histogram takes the global
// layout, so a scoped observation lands in the same bucket it would
// unscoped, in the scope and after rollup.
func TestScopedHistogramTakesGlobalLayout(t *testing.T) {
	const name = "obstest/scope/layout"
	global := Default.Histogram(name, []int64{3, 100})
	hv := ScopedHistogram(name, []int64{4})
	before := global.bucketList(len(global.buckets))

	s := NewScope("test/layout")
	s.SetRecorder(nil)
	ctx := WithScope(context.Background(), s)
	hv.Observe(ctx, 3)
	hv.Observe(ctx, 50)
	want := []Bucket{{LE: 3, N: 1}, {LE: 100, N: 1}, {LE: math.MaxInt64, N: 0}}
	if got := s.Snapshot().Histograms[name].Buckets; !slices.Equal(got, want) {
		t.Fatalf("scope buckets = %v, want %v", got, want)
	}
	s.Close()
	got := global.bucketList(len(global.buckets))
	for i := range got {
		got[i].N -= before[i].N
	}
	if !slices.Equal(got, want) {
		t.Fatalf("global buckets gained %v in rollup, want %v", got, want)
	}
}

func TestScopeNilSafe(t *testing.T) {
	var s *Scope
	s.Flag(FlagDegraded)
	s.Note("k", "v")
	s.Event("rung/exact", "boom", time.Millisecond)
	s.StartSpan("nil/span").End()
	s.SetRecorder(nil)
	if s.ID() != 0 || s.Name() != "" || s.Registry() != nil || s.Snapshot() != nil {
		t.Fatal("nil scope accessors must return zero values")
	}
	if sum := s.Close(); sum.ID != 0 {
		t.Fatalf("nil scope Close returned %+v", sum)
	}
	if got := ScopeFrom(context.Background()); got != nil {
		t.Fatalf("unscoped context yielded scope %v", got)
	}
	if got := ScopeFrom(nil); got != nil { //nolint:staticcheck // nil ctx is the documented edge case
		t.Fatalf("nil context yielded scope %v", got)
	}
}

func TestScopeCloseIdempotent(t *testing.T) {
	fr := NewFlightRecorder(4, 2)
	s := NewScope("test/idempotent")
	s.SetRecorder(fr)
	first := s.Close()
	if first.ID != s.ID() || first.Name != "test/idempotent" {
		t.Fatalf("first Close returned %+v", first)
	}
	if again := s.Close(); again.ID != 0 {
		t.Fatalf("second Close returned %+v, want zero summary", again)
	}
	if snap := fr.Snapshot(); snap.Total != 1 {
		t.Fatalf("recorder saw %d records, want 1", snap.Total)
	}
}

func TestScopeFlaggedRecordKeepsSpans(t *testing.T) {
	fr := NewFlightRecorder(4, 2)
	s := NewScope("test/degraded")
	s.SetRecorder(fr)
	root := s.StartSpan("engine/solve")
	child := root.Start("rung/exact")
	child.End()
	root.End()
	s.Flag(FlagDegraded)
	s.Flag(FlagDegraded) // dedup
	s.Event("rung/exact", "search budget exceeded", time.Millisecond)
	s.Event("rung/approx-1.25", "", 2*time.Millisecond)
	s.Note("family", "path")
	sum := s.Close()

	if got := sum.Flags; len(got) != 1 || got[0] != FlagDegraded {
		t.Fatalf("flags = %v, want [degraded]", got)
	}
	if sum.SpanCount != 2 {
		t.Fatalf("span count = %d, want 2", sum.SpanCount)
	}
	if len(sum.Events) != 2 || sum.Events[0].Err != "search budget exceeded" {
		t.Fatalf("events = %+v", sum.Events)
	}
	snap := fr.Snapshot()
	if snap.FlaggedTotal != 1 || len(snap.Flagged) != 1 {
		t.Fatalf("flagged ring: total=%d len=%d, want 1/1", snap.FlaggedTotal, len(snap.Flagged))
	}
	rec := snap.Flagged[0]
	if len(rec.Spans) != 2 || rec.Spans[0].Name != "engine/solve" || rec.Spans[1].Parent != rec.Spans[0].ID {
		t.Fatalf("flagged record spans = %+v, want the full forest", rec.Spans)
	}
	if rec.Summary.Notes["family"] != "path" {
		t.Fatalf("notes = %v", rec.Summary.Notes)
	}
}

func TestScopeFaultFlag(t *testing.T) {
	prev := FaultFiredTotal
	defer func() { FaultFiredTotal = prev }()
	var fired int64
	FaultFiredTotal = func() int64 { return fired }

	s := NewScope("test/faulted")
	s.SetRecorder(nil)
	fired = 3 // a site fires while the scope is open
	sum := s.Close()
	if len(sum.Flags) != 1 || sum.Flags[0] != FlagFault {
		t.Fatalf("flags = %v, want [fault]", sum.Flags)
	}

	quiet := NewScope("test/quiet")
	quiet.SetRecorder(nil)
	if sum := quiet.Close(); len(sum.Flags) != 0 {
		t.Fatalf("unfaulted scope flags = %v, want none", sum.Flags)
	}
}

func TestStartSpanCtxRoutesToScope(t *testing.T) {
	s := NewScope("test/spans")
	s.SetRecorder(nil)
	ctx := WithScope(context.Background(), s)
	sp := StartSpanCtx(ctx, "engine/solve")
	sp.End()
	if got := s.Tracer().Len(); got != 1 {
		t.Fatalf("scope tracer has %d spans, want 1", got)
	}
	// Unscoped: nil span, no panic.
	if sp := StartSpanCtx(context.Background(), "unscoped"); sp != nil {
		t.Fatal("unscoped StartSpanCtx returned a live span")
	}
	s.Close()
}

func TestScopeTraceDirWritesChromeFile(t *testing.T) {
	dir := t.TempDir()
	SetScopeTraceDir(dir)
	defer SetScopeTraceDir("")

	s := NewScope("engine/solve")
	s.SetRecorder(nil)
	s.StartSpan("rung/exact").End()
	s.Close()

	matches, err := filepath.Glob(filepath.Join(dir, "scope-*-engine-solve.trace.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("trace files = %v (err %v), want exactly one", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc ChromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) != 1 || doc.TraceEvents[0].Name != "rung/exact" {
		t.Fatalf("trace events = %+v", doc.TraceEvents)
	}
}

// TestConcurrentScopesRace exercises concurrent scope creation, recording
// and rollup; run under -race it pins the locking of Registry.addFrom,
// the flight recorder rings, and concurrent span creation.
func TestConcurrentScopesRace(t *testing.T) {
	fr := NewFlightRecorder(8, 4)
	global := Default.Counter("obstest/scope/ops")
	before := global.Value()
	const workers = 8
	const perScope = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := NewScope("test/race")
			s.SetRecorder(fr)
			if w%2 == 0 {
				s.Flag(FlagDegraded)
			}
			ctx := WithScope(context.Background(), s)
			counter := cvScope.In(ctx) // hoisted, as hot paths do
			var inner sync.WaitGroup
			for g := 0; g < 4; g++ {
				inner.Add(1)
				go func() {
					defer inner.Done()
					sp := StartSpanCtx(ctx, "component")
					for i := 0; i < perScope/4; i++ {
						counter.Inc()
					}
					sp.End()
				}()
			}
			inner.Wait()
			if got := s.Registry().Counter("obstest/scope/ops").Value(); got != perScope {
				t.Errorf("scope counter = %d, want %d", got, perScope)
			}
			s.Close()
		}(w)
	}
	wg.Wait()
	if got, want := global.Value(), before+workers*perScope; got != want {
		t.Fatalf("global after concurrent rollup = %d, want %d", got, want)
	}
	snap := fr.Snapshot()
	if snap.Total != workers || snap.FlaggedTotal != workers/2 {
		t.Fatalf("recorder totals = %d/%d, want %d/%d", snap.Total, snap.FlaggedTotal, workers, workers/2)
	}
}

// ID returns the scope's process-unique sequence number.
func (s *Scope) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Name returns the scope's name.
func (s *Scope) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Registry returns the scope's private metric registry (nil for a nil
// scope), so tests can read a scope's own metrics back.
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}
