package engine

import (
	"context"
	"strings"
	"sync"
	"testing"

	"joinpebble/internal/faultinject"
	"joinpebble/internal/obs"
)

// TestDifferentialConcurrentScopes is the scope isolation differential:
// two Planner.Run calls racing under distinct scopes must keep fully
// disjoint per-request counters, and after both scopes close the global
// registry's delta must equal their sum. (The TestDifferential prefix
// keeps it inside the CI race-detector differential step.)
func TestDifferentialConcurrentScopes(t *testing.T) {
	globalRuns := obs.Default.Counter("engine/runs")
	globalSolves := obs.Default.Counter("solver/solves")
	runsBefore := globalRuns.Value()
	solvesBefore := globalSolves.Value()

	scopes := [2]*obs.Scope{}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		sc := obs.NewScope("engine/solve")
		sc.SetRecorder(nil)
		scopes[i] = sc
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p Planner
			if _, err := p.Run(obs.WithScope(context.Background(), sc), spiderInstance()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	var scopedSolves int64
	for i, sc := range scopes {
		snap := sc.Snapshot()
		if got := snap.Counters["engine/runs"]; got != 1 {
			t.Fatalf("scope %d engine/runs = %d, want exactly its own run", i, got)
		}
		s := snap.Counters["solver/solves"]
		if s == 0 {
			t.Fatalf("scope %d recorded no solver work", i)
		}
		scopedSolves += s
		if got := sc.Tracer().Len(); got == 0 {
			t.Fatalf("scope %d collected no spans", i)
		}
	}
	// Nothing leaked to the global registry while the scopes were open.
	if got := globalRuns.Value(); got != runsBefore {
		t.Fatalf("global engine/runs moved to %d before rollup, want %d", got, runsBefore)
	}
	for _, sc := range scopes {
		sc.Close()
	}
	if got, want := globalRuns.Value(), runsBefore+2; got != want {
		t.Fatalf("global engine/runs after rollup = %d, want %d", got, want)
	}
	if got, want := globalSolves.Value(), solvesBefore+scopedSolves; got != want {
		t.Fatalf("global solver/solves = %d, want %d (sum of scopes)", got, want)
	}
}

// TestRunAutoScope: an unscoped Run opens its own scope and closes it
// before returning, so the flight recorder sees one summary per request
// and the global registry still accounts the run.
func TestRunAutoScope(t *testing.T) {
	globalRuns := obs.Default.Counter("engine/runs")
	before := globalRuns.Value()
	frBefore := obs.DefaultRecorder.Snapshot().Total

	var p Planner
	if _, err := p.Run(context.Background(), spiderInstance()); err != nil {
		t.Fatal(err)
	}
	if got, want := globalRuns.Value(), before+1; got != want {
		t.Fatalf("global engine/runs = %d, want %d (rollup before return)", got, want)
	}
	after := obs.DefaultRecorder.Snapshot()
	if after.Total != frBefore+1 {
		t.Fatalf("flight recorder total = %d, want %d", after.Total, frBefore+1)
	}
	sum := after.Recent[len(after.Recent)-1]
	if sum.Name != "engine/solve" || len(sum.Events) == 0 {
		t.Fatalf("recorded summary = %+v, want the solve with provenance events", sum)
	}
}

// TestDegradedRunLandsInFlightRecorder is the flight-recorder acceptance
// path: a fault-injected budget trip degrades the solve, the scope closes
// flagged, and the recorder retains the full record — degraded and fault
// flags, per-rung attempt provenance (the failed rung's error verbatim),
// and the span forest of the whole request.
func TestDegradedRunLandsInFlightRecorder(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(SiteRung, budgetFault(1))

	fr := obs.NewFlightRecorder(4, 4)
	sc := obs.NewScope("engine/solve")
	sc.SetRecorder(fr)
	var p Planner
	res, err := p.Run(obs.WithScope(context.Background(), sc), spiderInstance())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("run did not degrade")
	}
	sum := sc.Close()

	flags := strings.Join(sum.Flags, ",")
	if !strings.Contains(flags, obs.FlagDegraded) || !strings.Contains(flags, obs.FlagFault) {
		t.Fatalf("flags = %v, want degraded and fault", sum.Flags)
	}
	if len(sum.Events) != 2 {
		t.Fatalf("events = %+v, want one per attempted rung", sum.Events)
	}
	if sum.Events[0].Name != "rung/exact" || !strings.Contains(sum.Events[0].Err, "injected for test") {
		t.Fatalf("failed rung event = %+v, want the injected error verbatim", sum.Events[0])
	}
	if sum.Events[1].Name != "rung/approx-1.25" || sum.Events[1].Err != "" {
		t.Fatalf("winning rung event = %+v", sum.Events[1])
	}

	snap := fr.Snapshot()
	if snap.FlaggedTotal != 1 || len(snap.Flagged) != 1 {
		t.Fatalf("flagged records = %d/%d, want exactly one", snap.FlaggedTotal, len(snap.Flagged))
	}
	rec := snap.Flagged[0]
	if len(rec.Spans) == 0 || rec.Spans[0].Name != "engine/solve" {
		t.Fatalf("flagged record spans = %+v, want the request's span forest", rec.Spans)
	}
	if rec.Summary.Metrics == nil || rec.Summary.Metrics.Counters["engine/plan/degraded_budget"] != 1 {
		t.Fatalf("flagged record metrics = %+v, want the request's own counters", rec.Summary.Metrics)
	}
}
