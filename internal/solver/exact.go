package solver

import (
	"context"
	"fmt"

	"joinpebble/internal/core"
	"joinpebble/internal/faultinject"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
	"joinpebble/internal/tsp"
)

// Exact computes an optimal pebbling scheme via Proposition 2.2: per
// connected component, solve TSP(1,2) on the line graph exactly and
// translate the tour back into a pebbling. Exponential in the component's
// edge count (PEBBLE(D) is NP-complete, Theorem 4.2); components above
// tsp.MaxExactCities edges are rejected. A component whose greedy walk
// (see lineWalk) has no jump skips the search: its walk is already
// optimal.
type Exact struct{}

// Name implements Solver.
func (Exact) Name() string { return "exact" }

// Solve implements Solver.
func (Exact) Solve(ctx context.Context, g *graph.Graph) (core.Scheme, error) {
	var w lineWalk
	return solvePerComponent(ctx, g, "exact", func(ctx context.Context, c component, sp *obs.Span) ([]int, error) {
		if err := faultinject.Fire(SiteExactBudget); err != nil {
			return nil, err
		}
		if m := len(c.edges); m > tsp.MaxExactCities {
			return nil, fmt.Errorf("%w: component with %d edges exceeds exact limit %d", ErrBudgetExceeded, m, tsp.MaxExactCities)
		}
		// A walk with no jump costs π = m, optimal by Lemma 2.1, so the
		// search would only find another tour of the same cost.
		if walk, jumps, _ := walkComponent(sp, &w, c); jumps == 0 {
			return walk, nil
		}
		in := tsp.NewInstance(c.g.ComponentLineGraph(c.id))
		ts := sp.Start("held_karp")
		tour, _, err := tsp.Exact(ctx, in)
		ts.End()
		if err != nil {
			return nil, err
		}
		return c.edgeOrder(tour), nil
	})
}

// OptimalCost returns π̂(G), the optimal pebbling cost, by solving each
// component exactly. It is the ground truth the experiments compare
// against.
func OptimalCost(g *graph.Graph) (int, error) {
	scheme, err := Exact{}.Solve(context.Background(), g)
	if err != nil {
		return 0, err
	}
	return core.Verify(g, scheme)
}

// OptimalEffectiveCost returns π(G) = π̂(G) − β₀(G).
func OptimalEffectiveCost(g *graph.Graph) (int, error) {
	c, err := OptimalCost(g)
	if err != nil {
		return 0, err
	}
	return c - core.Betti0(g), nil
}
