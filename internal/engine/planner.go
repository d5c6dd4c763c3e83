package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"time"

	"joinpebble/internal/core"
	"joinpebble/internal/faultinject"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
	"joinpebble/internal/schemecache"
	"joinpebble/internal/solver"
)

// Planner routing counters: which ladder rung handled each instance, how
// often a family guarantee let the planner skip structural inspection
// entirely, and — when the degradation ladder engages — why each fall
// happened (engine/plan/degraded_* by cause, _runs for runs that
// completed on a lower rung than planned). All bindings are scope-aware:
// a Run whose context carries an obs.Scope records into that scope (and
// the totals reach the global registry when the scope closes), so two
// concurrent solves keep disjoint per-request counters.
var (
	cPlanPerfect    = obs.ScopedCounter("engine/plan/perfect")
	cPlanExact      = obs.ScopedCounter("engine/plan/exact")
	cPlanApprox     = obs.ScopedCounter("engine/plan/approx")
	cPlanOverride   = obs.ScopedCounter("engine/plan/override")
	cPlanGuaranteed = obs.ScopedCounter("engine/plan/by_guarantee")
	cRuns           = obs.ScopedCounter("engine/runs")
	tRun            = obs.ScopedTimer("engine/run")

	cDegradedRuns      = obs.ScopedCounter("engine/plan/degraded_runs")
	cDegradedBudget    = obs.ScopedCounter("engine/plan/degraded_budget")
	cDegradedDeadline  = obs.ScopedCounter("engine/plan/degraded_deadline")
	cDegradedPanic     = obs.ScopedCounter("engine/plan/degraded_panic")
	cDegradedStructure = obs.ScopedCounter("engine/plan/degraded_structure")
)

// SiteRung is the fault-injection site fired before every rung attempt
// in Run (registry in DESIGN.md): inject a wrapped solver sentinel to
// force any rung to fail without constructing a pathological instance.
const SiteRung = "engine/rung"

// Attempt is one rung try in a Run: the solver, how long it ran, and —
// for failed rungs — the error that pushed the run down the ladder,
// verbatim. The last attempt of a successful Run has Err == "".
type Attempt struct {
	Solver  string        `json:"solver"`
	Err     string        `json:"err,omitempty"`
	Elapsed time.Duration `json:"elapsed"`
}

// Planner inspects instances and routes them down the solver ladder. It
// is the only router: it walks solver.RouteTable itself. The zero value
// is ready to use.
type Planner struct {
	// ExactLimit caps the exact rung's per-component edge count; zero
	// means tsp.MaxExactCities.
	ExactLimit int
	// Solver, when non-nil, overrides routing: every instance goes to
	// this solver regardless of structure (the CLI -solver flag). An
	// Exact whose MaxEdges is zero runs under ExactLimit.
	// Degradation still applies unless Degrade.Off is set: an explicit
	// solver that trips its budget falls down the ladder like a routed
	// one.
	Solver solver.Solver
	// Degrade is the degradation policy Run applies when a rung fails
	// with a budget, deadline, panic, or structure error. The zero
	// value degrades down the ladder (exact → approx → naive):
	// Theorem 3.1 guarantees a 1.25-approximation is always available
	// and Lemma 2.1 a 2m scheme for free, so erroring out when a lower
	// rung still works is a policy choice, not a necessity. Strict
	// callers (the CLIs' -strict flag, tests pinning exact behavior)
	// set Off, and the planned rung's failure is the run's failure,
	// matchable via the solver sentinels it wraps.
	Degrade solver.LadderPolicy
	// Cache, when non-nil, is the scheme cache consulted before the
	// planned rung and filled after undegraded solves. When nil, Run
	// falls back to the process-wide cache installed via
	// SetSharedCache; if neither exists, runs are cache-free (the
	// zero-value Planner in a test process stays byte-identical to the
	// pre-cache engine).
	Cache *schemecache.Cache
}

// cacheFor resolves the cache a run uses: the Planner's own, else the
// shared one, else none.
func (p *Planner) cacheFor() *schemecache.Cache {
	if p.Cache != nil {
		return p.Cache
	}
	return SharedCache()
}

// Plan is a routing decision: the rung, the solver implementing it, and
// a human-readable justification for plan output and traces.
type Plan struct {
	Route  solver.Route
	Solver solver.Solver
	Reason string
}

// Plan routes an instance without solving it. Routing counters land in
// the global registry; Run plans through the scoped path so a request's
// plan decision stays with its scope.
func (p *Planner) Plan(in *Instance) Plan { return p.plan(context.Background(), in) }

// plan walks solver.RouteTable in order and takes the first row that
// applies. A family guarantee of complete-bipartite components admits
// the perfect row with no graph scan. An explicit Solver keeps the
// structural route but replaces the row's solver and reason.
func (p *Planner) plan(ctx context.Context, in *Instance) Plan {
	guaranteed := p.Solver == nil && in.Guarantees.CompleteBipartite
	table := solver.RouteTable()
	row := table[len(table)-1]
	for _, r := range table {
		if (guaranteed && r.Route == solver.RoutePerfect) || r.Applies(in.Graph(), p.ExactLimit) {
			row = r
			break
		}
	}
	if p.Solver != nil {
		cPlanOverride.Inc(ctx)
		s := p.Solver
		if e, ok := s.(solver.Exact); ok && e.MaxEdges == 0 {
			// An explicit exact solver is held to the planner's limit too.
			s = solver.Exact{MaxEdges: p.ExactLimit}
		}
		return Plan{Route: row.Route, Solver: s, Reason: fmt.Sprintf("explicit solver %s", s.Name())}
	}
	plan := Plan{Route: row.Route, Solver: row.New(p.ExactLimit), Reason: row.Reason}
	if guaranteed {
		cPlanGuaranteed.Inc(ctx)
		plan.Reason = fmt.Sprintf("family %s guarantees complete-bipartite components (Thm 3.2)", in.Family)
	}
	switch row.Route {
	case solver.RoutePerfect:
		cPlanPerfect.Inc(ctx)
	case solver.RouteExact:
		cPlanExact.Inc(ctx)
	default:
		cPlanApprox.Inc(ctx)
	}
	return plan
}

// Result is the single output of an engine-routed solve: the verified
// scheme with its costs and bounds, how it was routed, and (optionally)
// the metrics snapshot taken right after the solve.
type Result struct {
	// Family and Route record the pipeline provenance. Route is the
	// *planned* rung; when Degraded is set the scheme actually came from
	// a lower one (see Solver and Attempts).
	Family string
	Route  solver.Route
	// Solver is the name of the solver that produced the scheme — the
	// last entry of Attempts, not necessarily the planned rung.
	Solver string
	// Reason is the planner's routing justification.
	Reason string

	// Degraded reports that the planned rung failed and the scheme came
	// from a fallback; Attempts is the full rung-by-rung provenance
	// (every failed rung with its error verbatim, then the rung that
	// produced the scheme). Quality names the bound the final rung
	// guarantees — the degradation ladder never leaves the Lemma 2.1
	// 2m envelope, and every scheme is still simulator-verified.
	Degraded bool
	Attempts []Attempt
	Quality  string

	// Scheme is the pebbling scheme; Cost is its simulator-verified π̂
	// and EffectiveCost the π = π̂ − β₀ of Definition 2.2.
	Scheme        core.Scheme
	Cost          int
	EffectiveCost int

	// LowerBound and UpperBound are Lemma 2.1's universal bounds on π̂;
	// Perfect reports π = m (Definition 2.3).
	LowerBound, UpperBound int
	Perfect                bool

	// Vertices, Edges and Components describe the solved graph.
	Vertices, Edges, Components int

	// Elapsed is the wall time of plan + solve + verify.
	Elapsed time.Duration
}

// Run routes the instance, solves it under ctx, verifies the scheme
// against the pebble-game simulator, and assembles the Result. The
// solver layer's spans and counters fire underneath the engine/solve
// span, into the request's obs.Scope: if ctx carries one the caller
// owns it (close it to roll up and read per-request metrics back);
// otherwise Run opens and closes one itself, so every solve reports to
// the flight recorder either way. Each rung attempt runs under pprof
// labels (phase/family/rung), and the scope accumulates the attempt
// provenance as events plus degraded/panic/fault/error flags.
//
// Unless Degrade.Off is set, a rung failure the ladder can absorb — a
// search budget trip (solver.ErrBudgetExceeded), a per-rung soft
// deadline (context.DeadlineExceeded while the caller's own ctx is
// still live), a recovered component panic (solver.ErrPanic), or a
// structure rejection (solver.ErrStructure) — pushes the run down to
// the next rung instead of failing it: exact → approx → naive, with
// every attempt recorded in Result.Attempts. The caller's own
// cancellation always aborts the run.
func (p *Planner) Run(ctx context.Context, in *Instance) (*Result, error) {
	sc := obs.ScopeFrom(ctx)
	owned := sc == nil
	if owned {
		// Unscoped callers (the CLIs, tests) get a per-run scope for free
		// so every solve feeds the flight recorder; callers that made
		// their own scope keep ownership and close it themselves.
		sc = obs.NewScope("engine/solve")
		ctx = obs.WithScope(ctx, sc)
	}
	res, err := p.run(ctx, in, sc)
	if owned {
		sc.Close()
	}
	return res, err
}

// run is the scope-carrying body of Run: ctx always holds sc here. The
// ladder is assembled as data — an optional cache rung, the planned
// solver, then the universal fallbacks — and handed to
// solver.WalkLadder, which owns per-rung deadlines and failure
// classification; the record hook below is the single place attempt
// provenance (Result.Attempts, scope events, degradation counters and
// flags) is written.
func (p *Planner) run(ctx context.Context, in *Instance, sc *obs.Scope) (*Result, error) {
	cRuns.Inc(ctx)
	start := obs.Now()
	sp := obs.StartSpanCtx(ctx, "engine/solve")
	defer sp.End()
	sc.Note("family", in.Family)

	plan := p.plan(ctx, in)
	g := in.Graph()
	sp.SetInt("edges", int64(g.M()))
	sp.SetInt("route", int64(plan.Route))

	cs := cacheState{cache: p.cacheFor()}
	rungs := p.ladder(ctx, in, plan, g, &cs)

	var attempts []Attempt
	degraded := 0
	record := func(o solver.RungOutcome) {
		if o.Err == nil {
			attempts = append(attempts, Attempt{Solver: o.Name, Elapsed: o.Elapsed})
			sc.Event("rung/"+o.Name, "", o.Elapsed)
			return
		}
		sc.Event("rung/"+o.Name, o.Err.Error(), o.Elapsed)
		if o.Optional {
			// A cache miss is not an attempt: the run's provenance
			// stays planned-rung-first, and the miss never counts as
			// degradation.
			return
		}
		attempts = append(attempts, Attempt{Solver: o.Name, Err: o.Err.Error(), Elapsed: o.Elapsed})
		if errors.Is(o.Err, solver.ErrPanic) {
			sc.Flag(obs.FlagPanic)
		}
		if !o.Absorbed {
			return
		}
		switch o.Cause {
		case solver.CauseBudget:
			cDegradedBudget.Inc(ctx)
		case solver.CauseDeadline:
			cDegradedDeadline.Inc(ctx) // a rung soft deadline, caller still live
		case solver.CausePanic:
			cDegradedPanic.Inc(ctx)
		case solver.CauseStructure:
			cDegradedStructure.Inc(ctx)
		}
		degraded++
		sp.SetInt("degraded", int64(degraded))
	}

	wr, err := solver.WalkLadder(ctx, rungs, p.Degrade, record)
	if err != nil {
		sc.Flag(obs.FlagError)
		var re *solver.RungError
		if errors.As(err, &re) {
			sc.Note("error", re.Err.Error())
			return nil, fmt.Errorf("engine: %s via %s: %w", in.Family, re.Rung, re.Err)
		}
		sc.Note("error", err.Error())
		return nil, fmt.Errorf("engine: %s: %w", in.Family, err)
	}

	quality := qualityFor(wr.Rung)
	if wr.Rung == CachedSolverName {
		quality = "cached: " + qualityFor(cs.entry.Solver)
	} else if cs.cache != nil && wr.Degraded == 0 {
		cs.insert(ctx, g, wr.Rung, wr.Scheme, wr.Cost)
	}
	res := p.assemble(ctx, in, plan, g, wr.Rung, quality, wr.Scheme, wr.Cost, start)
	res.Attempts = attempts
	res.Degraded = wr.Degraded > 0
	if res.Degraded {
		cDegradedRuns.Inc(ctx)
		sc.Flag(obs.FlagDegraded)
	}
	return res, nil
}

// ladder assembles the run's rung descriptors: the cache rung (when a
// cache is configured), the planned (or explicitly chosen) solver, and
// — unless degradation is off — the Theorem 3.1 approximation and the
// Lemma 2.1 naive scheme, each guaranteed to exist for any graph, so a
// non-strict run can always complete. Solver rungs fire the SiteRung
// fault hook and run under pprof labels; the cache rung is optional —
// its miss falls through silently.
func (p *Planner) ladder(ctx context.Context, in *Instance, plan Plan, g *graph.Graph, cs *cacheState) []solver.Rung {
	rungs := make([]solver.Rung, 0, 4)
	if cs.cache != nil {
		rungs = append(rungs, solver.Rung{
			Name:     CachedSolverName,
			Optional: true,
			Attempt: func(ctx context.Context) (core.Scheme, int, error) {
				return cs.attempt(ctx, in, plan, g)
			},
		})
	}
	solverRung := func(s solver.Solver) solver.Rung {
		return solver.Rung{
			Name: s.Name(),
			Attempt: func(rctx context.Context) (scheme core.Scheme, cost int, err error) {
				// Profiling labels per rung: a CPU profile taken during
				// a solve attributes samples to the phase/family/rung
				// that burned them.
				pprof.Do(rctx, pprof.Labels("phase", "solve", "family", in.Family, "rung", s.Name()), func(ctx context.Context) {
					scheme, cost, err = attemptRung(ctx, s, g)
				})
				return
			},
		}
	}
	rungs = append(rungs, solverRung(plan.Solver))
	if p.Degrade.Off {
		return rungs
	}
	for _, fb := range []solver.Solver{solver.Approx125{}, solver.Naive{}} {
		if fb.Name() != plan.Solver.Name() {
			rungs = append(rungs, solverRung(fb))
		}
	}
	return rungs
}

// attemptRung is one solver rung: the SiteRung fault hook, then the
// solve + simulator verification. The fault fires under the rung's
// context, so an injected delay is cut short by the rung's soft
// deadline (or the caller's cancellation) like any real slow solve.
func attemptRung(ctx context.Context, s solver.Solver, g *graph.Graph) (core.Scheme, int, error) {
	if err := faultinject.FireContext(ctx, SiteRung); err != nil {
		return nil, 0, err
	}
	return solver.SolveAndVerify(ctx, s, g)
}

// assemble builds the Result for the rung that produced the scheme.
func (p *Planner) assemble(ctx context.Context, in *Instance, plan Plan, g *graph.Graph, solverName, quality string, scheme core.Scheme, cost int, start time.Time) *Result {
	// One BFS for β₀ serves π = π̂ − β₀ (Definition 2.2) and Lemma 2.1's
	// m + β₀, which is 0 on an edgeless graph, where β₀ = 0.
	b0 := core.Betti0(g)
	eff := scheme.Cost() - b0
	res := &Result{
		Family:        in.Family,
		Route:         plan.Route,
		Solver:        solverName,
		Reason:        plan.Reason,
		Quality:       quality,
		Scheme:        scheme,
		Cost:          cost,
		EffectiveCost: eff,
		LowerBound:    g.M() + b0,
		UpperBound:    core.UpperBound(g),
		Perfect:       eff == g.M(),
		Vertices:      g.N(),
		Edges:         g.M(),
		Components:    b0,
		Elapsed:       obs.Since(start),
	}
	tRun.Observe(ctx, res.Elapsed)
	return res
}

// qualityFor names the bound the producing solver's scheme carries —
// the "how much did degradation cost us" part of the provenance.
func qualityFor(name string) string {
	switch name {
	case "equijoin":
		return "perfect: π = m (Thm 4.1)"
	case "exact":
		return "optimal (exact search)"
	case "approx-1.25":
		return "π ≤ 1.25m (Thm 3.1)"
	case "naive":
		return "π̂ ≤ 2m (Lemma 2.1)"
	default:
		return "π̂ ≤ 2m (Lemma 2.1, universal)"
	}
}
