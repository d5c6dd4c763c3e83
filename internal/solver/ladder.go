package solver

import (
	"context"
	"errors"
	"fmt"
	"time"

	"joinpebble/internal/core"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
	"joinpebble/internal/tsp"
)

// This file is the ladder-as-data core the engine planner walks. A solve ladder is an ordered slice of Rung
// descriptors; WalkLadder owns the mechanics every caller used to
// hand-roll — per-rung soft deadlines, absorbable-failure
// classification, and the single record hook through which attempt
// provenance is reported — so rung policy lives in exactly one place
// and callers only describe *what* the rungs are.

// Rung is one step of a solve ladder as data: a provenance name and the
// attempt that tries to produce a verified scheme.
type Rung struct {
	// Name labels the rung in attempt records, scope events, and
	// profiling labels ("exact", "approx-1.25", "cached", ...).
	Name string
	// Optional marks a rung whose failure is absorbed unconditionally
	// and silently: the walk falls through without counting a
	// degradation, whatever the error. The scheme-cache rung is
	// optional — a miss is not a failure of the run.
	Optional bool
	// Attempt runs the rung under ctx and returns a verified scheme
	// with its cost.
	Attempt func(ctx context.Context) (core.Scheme, int, error)
}

// DegradeCause classifies why a rung failure was (or was not)
// absorbable by the ladder. The zero value is a rung that did not fail.
type DegradeCause int

const (
	// CauseBudget: the search budget tripped (ErrBudgetExceeded).
	CauseBudget DegradeCause = iota + 1
	// CauseDeadline: a per-rung soft deadline expired while the
	// caller's own context was still live.
	CauseDeadline
	// CausePanic: a recovered component panic (ErrPanic).
	CausePanic
	// CauseStructure: a structural rejection (ErrStructure).
	CauseStructure
	// CauseFatal: a failure the ladder never absorbs — the caller's own
	// cancellation or an error outside the absorbable sentinels.
	CauseFatal
)

// ClassifyDegrade maps a rung failure to its cause. The caller's own
// cancellation or expired deadline is always CauseFatal: lower rungs
// would inherit a dead context, and the caller asked to stop.
func ClassifyDegrade(ctx context.Context, err error) DegradeCause {
	if ctx.Err() != nil {
		return CauseFatal
	}
	switch {
	case errors.Is(err, ErrBudgetExceeded):
		return CauseBudget
	case errors.Is(err, context.DeadlineExceeded):
		return CauseDeadline
	case errors.Is(err, ErrPanic):
		return CausePanic
	case errors.Is(err, ErrStructure):
		return CauseStructure
	default:
		return CauseFatal
	}
}

// RungOutcome is what WalkLadder reports to the record hook, once per
// attempted rung — the one place attempt provenance is emitted.
type RungOutcome struct {
	// Name identifies the rung; Optional copies its flag.
	Name     string
	Optional bool
	// Err is nil on success; Cause classifies a failure.
	Err   error
	Cause DegradeCause
	// Absorbed reports that the walk continued past this failure (an
	// optional skip or a counted degradation).
	Absorbed bool
	// Elapsed is the rung's wall time.
	Elapsed time.Duration
}

// LadderPolicy configures how WalkLadder responds to rung failures. The
// zero value degrades down the ladder, giving each non-final rung half
// the remaining deadline.
type LadderPolicy struct {
	// Off disables degradation: the first non-optional failure is the
	// walk's failure.
	Off bool
	// RungFraction is the share of the caller's remaining deadline a
	// non-final rung may spend before falling through (0 means 0.5).
	// The final rung always gets everything left; callers without a
	// deadline run every rung unbounded.
	RungFraction float64
}

// RungError is the failure WalkLadder returns: the rung that ended the
// walk and its error, unwrapped for sentinel matching.
type RungError struct {
	Rung string
	Err  error
}

func (e *RungError) Error() string { return fmt.Sprintf("rung %s: %v", e.Rung, e.Err) }
func (e *RungError) Unwrap() error { return e.Err }

// WalkResult is a successful ladder walk: the verified scheme, the rung
// that produced it, and how many non-optional rungs failed on the way
// down (zero means the walk did not degrade).
type WalkResult struct {
	Scheme core.Scheme
	Cost   int
	Rung   string
	// Degraded counts the absorbed non-optional failures before
	// success.
	Degraded int
}

// WalkLadder tries rungs in order until one produces a scheme. Every
// attempted rung is reported to record (when non-nil) exactly once. A
// non-optional failure ends the walk when the policy is Off, the rung
// is last, or the cause is fatal; otherwise it is absorbed and the walk
// falls through. Optional-rung failures are always absorbed unless the
// caller's own context is dead.
func WalkLadder(ctx context.Context, rungs []Rung, pol LadderPolicy, record func(RungOutcome)) (WalkResult, error) {
	if len(rungs) == 0 {
		return WalkResult{}, errors.New("solver: empty ladder")
	}
	degraded := 0
	for i, r := range rungs {
		final := i == len(rungs)-1
		rctx, cancel := rungDeadline(ctx, pol, final || r.Optional)
		start := obs.Now()
		scheme, cost, err := r.Attempt(rctx)
		cancel()
		elapsed := obs.Since(start)
		if err == nil {
			if record != nil {
				record(RungOutcome{Name: r.Name, Optional: r.Optional, Elapsed: elapsed})
			}
			return WalkResult{Scheme: scheme, Cost: cost, Rung: r.Name, Degraded: degraded}, nil
		}
		cause := ClassifyDegrade(ctx, err)
		absorbed := !final && (r.Optional || (!pol.Off && cause != CauseFatal))
		if record != nil {
			record(RungOutcome{Name: r.Name, Optional: r.Optional, Err: err, Cause: cause, Absorbed: absorbed, Elapsed: elapsed})
		}
		if !absorbed {
			return WalkResult{}, &RungError{Rung: r.Name, Err: err}
		}
		if !r.Optional {
			degraded++
		}
	}
	// Unreachable while the last rung is non-optional (the engine always
	// ends with an unconditional rung); a fully optional ladder that
	// drains reports the exhaustion explicitly.
	return WalkResult{}, errors.New("solver: ladder exhausted without a scheme")
}

// rungDeadline carves a non-final rung's soft deadline out of the
// caller's remaining budget: RungFraction (default half) of the time
// left, so every lower rung keeps a share and the final rung gets
// whatever remains.
func rungDeadline(ctx context.Context, pol LadderPolicy, unbounded bool) (context.Context, context.CancelFunc) {
	if unbounded || pol.Off {
		return ctx, func() {}
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}
	}
	remaining := obs.Until(dl)
	if remaining <= 0 {
		return ctx, func() {}
	}
	frac := pol.RungFraction
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	return context.WithDeadline(ctx, obs.Now().Add(time.Duration(float64(remaining)*frac)))
}

// RouteSpec describes one rung of the routing ladder as data: the
// structural predicate that admits an instance, the solver implementing
// the rung, and the human-readable justification plan output carries.
// The engine planner walks RouteTable and takes all three from the same
// row, so the classification, the implementation, and the explanation
// cannot drift apart.
type RouteSpec struct {
	Route  Route
	Reason string
	// Applies reports whether the rung handles g; the table's last
	// entry must apply to everything.
	Applies func(g *graph.Graph) bool
	// New builds the implementing solver.
	New func() Solver
}

// RouteTable returns the routing ladder in the order the planner tries
// it: perfect (Theorems 3.2/4.1), exact under the search budget, and
// the universal Theorem 3.1 approximation. Classifying an instance is
// purely structural (no solving happens), costing one bipartition check
// plus one component scan.
func RouteTable() []RouteSpec {
	return []RouteSpec{
		{
			Route:   RoutePerfect,
			Reason:  "all components complete bipartite (Thm 4.1)",
			Applies: IsEquijoinGraph,
			New:     func() Solver { return Equijoin{} },
		},
		{
			Route:  RouteExact,
			Reason: "every component within the exact search budget",
			Applies: func(g *graph.Graph) bool {
				for ci := range g.ComponentCount() {
					if _, edges := g.Component(ci); len(edges) > tsp.MaxExactCities {
						return false
					}
				}
				return true
			},
			New: func() Solver { return Exact{} },
		},
		{
			Route:   RouteApprox,
			Reason:  "1.25-approximation (Thm 3.1)",
			Applies: func(*graph.Graph) bool { return true },
			New:     func() Solver { return Approx125{} },
		},
	}
}
