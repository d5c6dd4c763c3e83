// Package solver provides pebbling-scheme solvers for the PEBBLE problem
// of Definition 4.1: given a graph, produce a (low-cost or optimal)
// pebbling scheme. Solvers reduce per connected component — justified by
// the additivity lemma (Lemma 2.2): π̂(G ⊔ H) = π̂(G) + π̂(H) — and express
// each component's scheme as an edge deletion order, i.e. a TSP(1,2) tour
// of the component's line graph (Propositions 2.1 and 2.2).
package solver

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"joinpebble/internal/core"
	"joinpebble/internal/faultinject"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
)

// ErrBudgetExceeded marks failures where an instance is structurally fine
// but too large for the requested solver's search budget (exact edge
// limits, decision budgets). Callers that
// want to degrade to an approximation match it with errors.Is.
var ErrBudgetExceeded = errors.New("solver: search budget exceeded")

// ErrStructure marks failures where a specialized solver rejected the
// graph because it lacks the structure the solver requires (equijoin
// components that are not complete bipartite, matchings with degree > 1).
var ErrStructure = errors.New("solver: graph lacks required structure")

// ErrPanic marks a panic recovered inside a component solve and converted
// to an error, so one poisoned component degrades the run instead of
// crashing the process. Match with errors.Is; the concrete *PanicError
// carries the panic value and stack.
var ErrPanic = errors.New("solver: panic in component solve")

// PanicError is the error a recovered component-solve panic is converted
// to. It wraps ErrPanic for errors.Is matching and preserves the panic
// value plus the goroutine stack captured at recovery, so the failure is
// fully diagnosable after the run has degraded past it.
type PanicError struct {
	// Solver names the solver whose component function panicked.
	Solver string
	// Value is the value passed to panic().
	Value any
	// Stack is the debug.Stack() capture from the recovery point.
	Stack []byte
}

// Error implements error. The stack is included so a logged degradation
// provenance pinpoints the crash site without re-running.
func (e *PanicError) Error() string {
	return fmt.Sprintf("solver: panic in %s component solve: %v\n%s", e.Solver, e.Value, e.Stack)
}

// Unwrap makes errors.Is(err, ErrPanic) match.
func (e *PanicError) Unwrap() error { return ErrPanic }

// Fault-injection sites fired in this package's hot paths (registry in
// DESIGN.md). Disarmed cost is one atomic load per component solve —
// nothing in a per-edge loop.
const (
	// SiteComponent fires at the start of every component solve, and once
	// per Thm 3.2 solve: inject an error to fail one component, a panic
	// to exercise the recovery path, or a delay to hold a solve
	// mid-flight.
	SiteComponent = "solver/component"
	// SiteExactBudget fires before the exact solver's per-component edge
	// budget check: inject a wrapped ErrBudgetExceeded to force the
	// budget rung to fail on an instance of any size.
	SiteExactBudget = "solver/exact/budget"
)

// Observability: every Solve is a span tree (solver name -> phases ->
// per-component solves) on the active tracer, and the per-phase timers
// and counters below aggregate across solves for the -metrics snapshot.
// Hot loops are untouched — timing wraps whole phases, counters flush
// once per solve — so instrumentation stays invisible next to the solve
// itself (the bench regression harness keeps that claim honest).
var (
	cSolves           = obs.ScopedCounter("solver/solves")
	cComponentsSolved = obs.ScopedCounter("solver/components_solved")
	tComponentSolve   = obs.ScopedTimer("solver/phase/component_solve")
	tSchemeBuild      = obs.ScopedTimer("solver/phase/scheme_build")
)

// Solver produces a pebbling scheme for an arbitrary graph. Solve must
// return a scheme that Verify accepts; cost guarantees differ per solver.
type Solver interface {
	// Name identifies the solver in experiment tables.
	Name() string
	// Solve returns a complete pebbling scheme for g, bounded by ctx. It
	// returns ctx.Err() (wrapped or bare — match with errors.Is(err,
	// context.Canceled) / context.DeadlineExceeded) when canceled before
	// completion. The per-component solvers observe cancellation at
	// least between components, so a canceled solve returns promptly
	// without tearing down mid-component state.
	Solve(ctx context.Context, g *graph.Graph) (core.Scheme, error)
}

// SolveContext is s.Solve(ctx, g). It stays only for the replay in
// cmd/pebblebench; the next benchmark change (ROADMAP item 2) deletes it.
func SolveContext(ctx context.Context, s Solver, g *graph.Graph) (core.Scheme, error) {
	return s.Solve(ctx, g)
}

// component is the connected component numbered id of the graph g
// being solved, named by g's own ids: its vertices and its edges, each
// ascending.
type component struct {
	g            *graph.Graph
	id           int
	verts, edges []int
}

// componentOrderFunc computes an edge-visit order for one connected
// component, as g's own edge ids. ctx bounds the component solve —
// solvers with interruptible inner loops (exact search) thread it down
// so a deadline unwinds mid-component, not just at component boundaries.
// sp is the component's trace span (nil when tracing is off); solvers
// hang their phase spans off it. The returned slice may be the solver's
// scratch: it is read before the next component is solved.
type componentOrderFunc func(ctx context.Context, c component, sp *obs.Span) ([]int, error)

// runComponentOrder invokes fn with the failure containment every call
// site needs: the SiteComponent fault hook fires first, under ctx, and a
// panic anywhere under fn is recovered into a *PanicError carrying the
// stack, so one poisoned component surfaces as an ordinary error the
// engine can degrade on instead of crashing the process.
func runComponentOrder(ctx context.Context, name string, fn func() ([]int, error)) (order []int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Solver: name, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := faultinject.Fire(ctx, SiteComponent); err != nil {
		return nil, err
	}
	return fn()
}

// solvePerComponent applies fn to each edge-bearing component of g in
// component order on the caller's goroutine and concatenates their
// orders into one edge order, converted to a scheme. Each component is
// handed over in place, as lists of g's own vertex and edge ids read off
// g's component decomposition, so nothing is copied or relabelled.
// Component boundaries cost one extra move each, matching the β₀ term
// of Definition 2.2; components are independent (Lemma 2.2), so no
// component's order depends on another's. A solve never fans out: how
// many solves run at once is its caller's decision (pebbled's
// admission).
//
// Cancellation is observed at two granularities: between components
// (once ctx is done no further component starts) and — for solvers
// whose component functions thread ctx into their inner loops, like the
// exact search — inside a component, so even one huge component unwinds
// promptly. The first failing component (error or recovered panic) ends
// the walk, but the caller's own cancellation outranks its error. A
// cancellation that arrives only after every component finished is
// deliberately ignored: a complete verified solve beats a discarded one.
func solvePerComponent(ctx context.Context, g *graph.Graph, name string, fn componentOrderFunc) (core.Scheme, error) {
	if g.M() == 0 {
		return core.Scheme{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cSolves.Inc(ctx)
	root := obs.StartSpanCtx(ctx, name)
	defer root.End()
	root.SetInt("edges", int64(g.M()))
	cComponentsSolved.Add(ctx, int64(core.Betti0(g)))

	ncomp := g.ComponentCount()
	order := make([]int, 0, g.M())
	for ci := range ncomp {
		verts, edges := g.Component(ci)
		if len(edges) == 0 {
			continue // an isolated vertex has nothing to pebble (§2)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		compSpan := root.Start("component_solve")
		if ncomp > 1 {
			compSpan.SetInt("component", int64(ci))
		}
		co, err := solveComponent(ctx, compSpan, name, component{g: g, id: ci, verts: verts, edges: edges}, fn)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, err
		}
		order = append(order, co...)
	}
	return schemeFromOrderTimed(ctx, root, g, order)
}

// solveComponent runs one component solve under sp, its component_solve
// span, with the component_solve phase timing, and checks that the order
// it returns covers every edge of c.
func solveComponent(ctx context.Context, sp *obs.Span, name string, c component, fn componentOrderFunc) ([]int, error) {
	start := obs.Now()
	sp.SetInt("edges", int64(len(c.edges)))
	order, err := runComponentOrder(ctx, name, func() ([]int, error) { return fn(ctx, c, sp) })
	sp.End()
	tComponentSolve.Observe(ctx, obs.Since(start))
	if err == nil && len(order) != len(c.edges) {
		err = fmt.Errorf("solver: component order covers %d of %d edges", len(order), len(c.edges))
	}
	return order, err
}

// edgeOrder maps a tour of L(C), city k standing for c.edges[k] (see
// graph.ComponentLineGraph), to g's edge ids, in place.
func (c component) edgeOrder(tour []int) []int {
	for i, k := range tour {
		tour[i] = c.edges[k]
	}
	return tour
}

// schemeFromOrderTimed is core.SchemeFromEdgeOrder wrapped in the
// scheme_build phase accounting.
func schemeFromOrderTimed(ctx context.Context, root *obs.Span, g *graph.Graph, order []int) (core.Scheme, error) {
	start := obs.Now()
	sp := root.Start("scheme_build")
	scheme, err := core.SchemeFromEdgeOrder(g, order)
	sp.End()
	tSchemeBuild.Observe(ctx, obs.Since(start))
	return scheme, err
}

// Naive is the baseline solver realizing Lemma 2.1's 2m upper bound: it
// visits edges in insertion order, paying for whatever jumps that incurs.
type Naive struct{}

// Name implements Solver.
func (Naive) Name() string { return "naive" }

// Solve implements Solver.
func (Naive) Solve(ctx context.Context, g *graph.Graph) (core.Scheme, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return core.NaiveScheme(g), nil
}

// SolveAndVerify runs s on g under ctx and checks the scheme against the
// simulator, returning the scheme and its verified cost π̂.
func SolveAndVerify(ctx context.Context, s Solver, g *graph.Graph) (core.Scheme, int, error) {
	scheme, err := s.Solve(ctx, g)
	if err != nil {
		return nil, 0, fmt.Errorf("solver %s: %w", s.Name(), err)
	}
	cost, err := core.VerifyContext(ctx, g, scheme)
	if err != nil {
		return nil, 0, fmt.Errorf("solver %s produced invalid scheme: %w", s.Name(), err)
	}
	return scheme, cost, nil
}
