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
	"runtime"
	"runtime/debug"
	"sync"

	"joinpebble/internal/core"
	"joinpebble/internal/faultinject"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
)

// ErrBudgetExceeded marks failures where an instance is structurally fine
// but too large for the requested solver's search budget (exact edge
// limits, branch-and-bound node caps, decision budgets). Callers that
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
	// SiteComponent fires at the start of every component solve, in both
	// the sequential and pooled paths: inject an error to fail one
	// component, a panic to exercise the recovery path, or a delay to
	// hold a worker mid-flight.
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
	cWorkersUsed      = obs.ScopedCounter("solver/workers_used")
	tSplit            = obs.ScopedTimer("solver/phase/component_split")
	tComponentSolve   = obs.ScopedTimer("solver/phase/component_solve")
	tSchemeBuild      = obs.ScopedTimer("solver/phase/scheme_build")
)

// Parallelism bounds the worker pool that solvePerComponent fans
// connected components out over. Zero (the default) means
// runtime.GOMAXPROCS(0); one forces the sequential path. Components are
// solved independently — justified by the additivity lemma (Lemma 2.2) —
// and merged back in component order, so the produced scheme is
// byte-identical to the sequential one at any setting (verified by
// TestParallelSolveMatchesSequential).
var Parallelism = 0

// The claw-scan kernel honors the same knob: internal/graph cannot
// import the solver layer, so the worker count crosses the boundary
// through this hook. Zero and one mean what they mean here (GOMAXPROCS
// resp. sequential); the kernel's first-claw result is deterministic at
// any setting.
func init() {
	graph.ClawScanWorkers = func() int { return Parallelism }
}

func workerCount(jobs int) int {
	w := Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// Solver produces a pebbling scheme for an arbitrary graph. Solve must
// return a scheme that Verify accepts; cost guarantees differ per solver.
type Solver interface {
	// Name identifies the solver in experiment tables.
	Name() string
	// Solve returns a complete pebbling scheme for g, bounded by ctx. It
	// returns ctx.Err() (wrapped or bare — match with errors.Is(err,
	// context.Canceled) / context.DeadlineExceeded) when canceled before
	// completion. The per-component solvers observe cancellation at
	// component granularity in the parallel pool, so a canceled solve
	// returns promptly without tearing down mid-component state.
	Solve(ctx context.Context, g *graph.Graph) (core.Scheme, error)
}

// SolveContext is s.Solve(ctx, g). It stays only for the replay in
// cmd/pebblebench; the next benchmark change (ROADMAP item 6) deletes it.
func SolveContext(ctx context.Context, s Solver, g *graph.Graph) (core.Scheme, error) {
	return s.Solve(ctx, g)
}

// connectedOrderFunc computes an edge-visit order for one connected
// component, given the component's subgraph. The order is in
// component-local edge indices. ctx bounds the component solve — solvers
// with interruptible inner loops (exact search) thread it down so a
// deadline unwinds mid-component, not just at component boundaries. sp
// is the component's trace span (nil when tracing is off); solvers hang
// their phase spans off it.
type connectedOrderFunc func(ctx context.Context, cg *graph.Graph, sp *obs.Span) ([]int, error)

// runComponentOrder invokes fn on one component with the failure
// containment every call site needs: the SiteComponent fault hook fires
// first, and a panic anywhere under fn is recovered into a *PanicError
// carrying the stack, so one poisoned component surfaces as an ordinary
// error the engine can degrade on instead of crashing the process.
func runComponentOrder(ctx context.Context, name string, cg *graph.Graph, sp *obs.Span, fn connectedOrderFunc) (order []int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Solver: name, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := faultinject.Fire(SiteComponent); err != nil {
		return nil, err
	}
	return fn(ctx, cg, sp)
}

// solvePerComponent decomposes g into connected components, applies fn to
// each edge-bearing component, stitches the local orders back into a
// global edge order, and converts it to a scheme. Component boundaries
// cost one extra move each, matching the β₀ term of Definition 2.2.
//
// Components are embarrassingly parallel (Lemma 2.2): fn runs on a
// bounded worker pool (see Parallelism) and the local orders are merged
// back in component order, so the result is independent of scheduling.
//
// Cancellation is observed at two granularities: between components
// (once ctx is done no new component solve starts) and — for solvers
// whose component functions thread ctx into their inner loops, like the
// exact search — inside a component, so even one huge component unwinds
// promptly. A component failure (error or recovered panic) cancels the
// pool's context so in-flight siblings drain at their next checkpoint
// and queued ones never start; the first failure in component order
// among the components that actually ran is the one reported.
func solvePerComponent(ctx context.Context, g *graph.Graph, name string, fn connectedOrderFunc) (core.Scheme, error) {
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

	splitStart := obs.Now()
	splitSpan := root.Start("component_split")
	g.Optimize() // one compact-index build serves every lookup below
	comps := g.Components()

	// Fast path: a single component spanning every vertex is already its
	// own dense-id subgraph; skip the copy.
	if len(comps) == 1 {
		splitSpan.End()
		tSplit.ObserveSince(ctx, splitStart)
		cComponentsSolved.Inc(ctx)
		cWorkersUsed.Inc(ctx)
		solveStart := obs.Now()
		compSpan := root.Start("component_solve")
		compSpan.SetInt("edges", int64(g.M()))
		order, err := runComponentOrder(ctx, name, g, compSpan, fn)
		compSpan.End()
		tComponentSolve.Observe(ctx, obs.Since(solveStart))
		if err != nil {
			return nil, err
		}
		if len(order) != g.M() {
			return nil, fmt.Errorf("solver: component order covers %d of %d edges", len(order), g.M())
		}
		return schemeFromOrderTimed(ctx, root, g, order)
	}

	// Bucket vertices and edges by component in one pass each; anything
	// per-component beyond that would make graphs with many components
	// (every equijoin graph) quadratic.
	compID := make([]int, g.N())
	for ci, comp := range comps {
		for _, v := range comp {
			compID[v] = ci
		}
	}
	edgesByComp := make([][]int, len(comps))
	for gi, e := range g.Edges() {
		ci := compID[e.U]
		edgesByComp[ci] = append(edgesByComp[ci], gi)
	}

	// Build every component subgraph up front (deterministic local ids:
	// the k-th local edge is edgesByComp[ci][k]), then fan the solves out.
	type job struct {
		ci int
		cg *graph.Graph
	}
	var jobs []job
	local := make([]int, g.N())
	for ci, comp := range comps {
		if len(comp) < 2 {
			continue // isolated vertex: nothing to pebble (§2)
		}
		for li, v := range comp {
			local[v] = li
		}
		cg := graph.New(len(comp))
		for _, gi := range edgesByComp[ci] {
			e := g.EdgeAt(gi)
			cg.AddEdge(local[e.U], local[e.V])
		}
		jobs = append(jobs, job{ci: ci, cg: cg})
	}
	splitSpan.End()
	tSplit.ObserveSince(ctx, splitStart)
	cComponentsSolved.Add(ctx, int64(len(jobs)))

	orders := make([][]int, len(jobs))
	errs := make([]error, len(jobs))
	// poolCtx lets the first failing component drain the whole pool:
	// siblings with interruptible inner loops unwind at their next
	// checkpoint, queued jobs never start.
	poolCtx, cancelPool := context.WithCancel(ctx)
	defer cancelPool()
	// The pool's component timer resolves once, outside the workers: the
	// scope (when present) is the same for every job, and resolving here
	// keeps the per-job cost at one atomic add.
	compTimer := tComponentSolve.In(ctx)
	solveJob := func(ji int) {
		if err := poolCtx.Err(); err != nil {
			errs[ji] = err
			return
		}
		start := obs.Now()
		compSpan := root.Start("component_solve")
		compSpan.SetInt("component", int64(jobs[ji].ci))
		compSpan.SetInt("edges", int64(jobs[ji].cg.M()))
		orders[ji], errs[ji] = runComponentOrder(poolCtx, name, jobs[ji].cg, compSpan, fn)
		compSpan.End()
		compTimer.Observe(obs.Since(start))
		if errs[ji] != nil {
			cancelPool()
		}
	}
	w := workerCount(len(jobs))
	cWorkersUsed.Add(ctx, int64(w))
	if w <= 1 {
		for ji := range jobs {
			if poolCtx.Err() != nil {
				break
			}
			solveJob(ji)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ji := range idx {
					solveJob(ji)
				}
			}()
		}
	feed:
		for ji := range jobs {
			select {
			case idx <- ji:
			case <-poolCtx.Done():
				break feed
			}
		}
		close(idx)
		wg.Wait()
	}
	// Report the failure that drained the pool, not the context.Canceled
	// errors the drain induced in its siblings — unless the caller's own
	// cancellation caused the drain, which outranks everything. A
	// cancellation that arrived only after every component completed is
	// deliberately ignored: anytime component solves (ExactBnB.Anytime)
	// may hand back a finished incumbent right as a soft deadline
	// expires, and a complete verified solve beats a discarded one.
	if err := firstRealError(errs); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		for ji, jb := range jobs {
			if len(orders[ji]) != jb.cg.M() {
				return nil, err // canceled before this component ran
			}
		}
	}

	var globalOrder []int
	for ji, jb := range jobs {
		if len(orders[ji]) != jb.cg.M() {
			return nil, fmt.Errorf("solver: component order covers %d of %d edges", len(orders[ji]), jb.cg.M())
		}
		for _, li := range orders[ji] {
			globalOrder = append(globalOrder, edgesByComp[jb.ci][li])
		}
	}
	return schemeFromOrderTimed(ctx, root, g, globalOrder)
}

// firstRealError returns the first error in component order that is not
// a pool-drain context.Canceled, falling back to the first error of any
// kind (all-canceled can only happen when the caller canceled, which the
// caller-context check above already owns).
func firstRealError(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
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
