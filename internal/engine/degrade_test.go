package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"joinpebble/internal/family"
	"joinpebble/internal/faultinject"
	"joinpebble/internal/solver"
)

// spiderInstance is the standing non-equijoin test instance: Spider G_3
// is not complete bipartite (so it routes exact, not perfect) and small
// enough that every rung is fast.
func spiderInstance() *Instance {
	return FromBipartite("spider", family.Spider(3))
}

// budgetFault is the deterministic lever the degradation tests pull: a
// wrapped budget sentinel injected at the engine's rung site, so the
// planned rung fails exactly the way a real Held–Karp budget trip does.
func budgetFault(times int) faultinject.Fault {
	return faultinject.Fault{
		Err:   fmt.Errorf("%w: injected for test", solver.ErrBudgetExceeded),
		Times: times,
	}
}

// TestDegradeOnBudget is the core ladder test: the exact rung trips its
// budget, the run completes on the approximation rung, and the Result
// carries the full provenance — both attempts, the failed rung's error
// verbatim, the Degraded flag, and the winning rung's quality bound.
func TestDegradeOnBudget(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(SiteRung, budgetFault(1))

	var p Planner
	res, err := p.Run(context.Background(), spiderInstance())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("Degraded not set after a rung fall")
	}
	if res.Solver != "approx-1.25" {
		t.Fatalf("winning solver = %q, want approx-1.25", res.Solver)
	}
	if res.Route != solver.RouteExact {
		t.Fatalf("Route must stay the planned rung, got %v", res.Route)
	}
	if len(res.Attempts) != 2 {
		t.Fatalf("Attempts = %+v, want exactly 2 entries", res.Attempts)
	}
	first := res.Attempts[0]
	if first.Solver != "exact" {
		t.Fatalf("first attempt solver = %q, want exact", first.Solver)
	}
	if want := fmt.Sprintf("%v: injected for test", solver.ErrBudgetExceeded); first.Err != want {
		t.Fatalf("first attempt error %q, want the rung failure verbatim: %q", first.Err, want)
	}
	last := res.Attempts[1]
	if last.Solver != res.Solver || last.Err != "" {
		t.Fatalf("last attempt %+v must be the clean winning rung", last)
	}
	if !strings.Contains(res.Quality, "1.25") {
		t.Fatalf("Quality = %q, want the Theorem 3.1 bound", res.Quality)
	}
}

// TestDegradedSchemeMatchesDirectApprox is the differential provenance
// test: the scheme a degraded run produces must be byte-identical to
// solving the same graph with the approximation solver directly — the
// ladder changes who solves, never what the fallback solver computes.
func TestDegradedSchemeMatchesDirectApprox(t *testing.T) {
	defer faultinject.Reset()
	in := spiderInstance()

	want, _, err := solver.SolveAndVerify(context.Background(), solver.Approx125{}, in.Graph())
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(SiteRung, budgetFault(1))
	var p Planner
	res, err := p.Run(context.Background(), spiderInstance())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Solver != "approx-1.25" {
		t.Fatalf("run did not degrade to approx: %+v", res.Attempts)
	}
	if !reflect.DeepEqual(res.Scheme, want) {
		t.Fatalf("degraded scheme differs from direct approx solve:\n got %v\nwant %v", res.Scheme, want)
	}
}

// TestStrictModeSurfacesTheError: with Degrade.Off the planned rung's
// failure is the run's failure, still matchable via the solver sentinel.
func TestStrictModeSurfacesTheError(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(SiteRung, budgetFault(1))

	p := Planner{Degrade: DegradePolicy{Off: true}}
	_, err := p.Run(context.Background(), spiderInstance())
	if !errors.Is(err, solver.ErrBudgetExceeded) {
		t.Fatalf("strict run err = %v, want ErrBudgetExceeded", err)
	}
}

// TestDegradeOnPanic: a recovered component panic on the planned rung is
// a degradable cause; the run survives on a lower rung and the attempt
// records the panic error (with its solver name) verbatim.
func TestDegradeOnPanic(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(solver.SiteComponent, faultinject.Fault{Panic: "induced", Times: 1})

	var p Planner
	res, err := p.Run(context.Background(), spiderInstance())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Solver != "approx-1.25" {
		t.Fatalf("panic did not degrade to approx: %+v", res.Attempts)
	}
	if !strings.Contains(res.Attempts[0].Err, "induced") {
		t.Fatalf("attempt lost the panic value: %q", res.Attempts[0].Err)
	}
}

// TestDegradeExhaustsLadderToNaive: when both the planned rung and the
// approximation fail, the naive Lemma 2.1 rung still lands the run.
func TestDegradeExhaustsLadderToNaive(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(SiteRung, budgetFault(2))

	var p Planner
	res, err := p.Run(context.Background(), spiderInstance())
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != "naive" || len(res.Attempts) != 3 {
		t.Fatalf("ladder did not bottom out on naive: %+v", res.Attempts)
	}
	g := spiderInstance().Graph()
	if res.Cost > 2*g.M() {
		t.Fatalf("naive rung cost %d exceeds the Lemma 2.1 bound %d", res.Cost, 2*g.M())
	}
}

// TestFinalRungFailureIsFatal: a failure on the last rung has nowhere to
// fall — the run errors even with degradation on.
func TestFinalRungFailureIsFatal(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(SiteRung, budgetFault(0)) // every rung

	var p Planner
	_, err := p.Run(context.Background(), spiderInstance())
	if !errors.Is(err, solver.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded from the final rung", err)
	}
}

// TestCallerCancellationOutranksDegradation: the ladder absorbs rung
// deadlines, never the caller's own cancellation.
func TestCallerCancellationOutranksDegradation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var p Planner
	if _, err := p.Run(ctx, spiderInstance()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRungSoftDeadlineDegrades: a non-final rung that burns through its
// RungFraction share of the caller's deadline falls to the next rung
// while the caller's context is still live. The delay is injected at the
// rung site, so the timing is deterministic: the 300ms stall dwarfs the
// 100ms rung share and is dwarfed by the 10s caller budget.
func TestRungSoftDeadlineDegrades(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(SiteRung, faultinject.Fault{Delay: 300 * time.Millisecond, Times: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p := Planner{Degrade: DegradePolicy{RungFraction: 0.01}}
	res, err := p.Run(ctx, spiderInstance())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatalf("rung soft deadline did not degrade: %+v", res.Attempts)
	}
	if !strings.Contains(res.Attempts[0].Err, context.DeadlineExceeded.Error()) {
		t.Fatalf("attempt error %q, want a deadline cause", res.Attempts[0].Err)
	}
}

// TestCleanRunProvenance: no faults, no degradation — one attempt, no
// Degraded flag, quality matching the planned rung.
func TestCleanRunProvenance(t *testing.T) {
	var p Planner
	res, err := p.Run(context.Background(), spiderInstance())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || len(res.Attempts) != 1 || res.Attempts[0].Err != "" {
		t.Fatalf("clean run provenance wrong: degraded=%v attempts=%+v", res.Degraded, res.Attempts)
	}
	if res.Quality != "optimal (exact search)" {
		t.Fatalf("Quality = %q for the exact rung", res.Quality)
	}
}

// TestExplicitSolverStillDegrades: a Planner.Solver override changes the
// top rung, not the safety net underneath it.
func TestExplicitSolverStillDegrades(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(SiteRung, budgetFault(1))

	p := Planner{Solver: solver.ExactBnB{}}
	res, err := p.Run(context.Background(), spiderInstance())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Attempts[0].Solver != "exact-bnb" {
		t.Fatalf("override rung provenance wrong: %+v", res.Attempts)
	}
}
