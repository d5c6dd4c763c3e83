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
// MaxEdges are rejected. A component whose greedy walk (see lineWalk)
// has no jump skips the search: its walk is already optimal.
type Exact struct {
	// MaxEdges caps the per-component edge count (the TSP city count).
	// Zero means tsp.MaxExactCities.
	MaxEdges int
}

// Name implements Solver.
func (Exact) Name() string { return "exact" }

// Solve implements Solver.
func (e Exact) Solve(ctx context.Context, g *graph.Graph) (core.Scheme, error) {
	limit := e.MaxEdges
	if limit == 0 {
		limit = tsp.MaxExactCities
	}
	return solvePerComponent(ctx, g, "exact", func(ctx context.Context, cg *graph.Graph, sp *obs.Span) ([]int, error) {
		if err := faultinject.Fire(SiteExactBudget); err != nil {
			return nil, err
		}
		if cg.M() > limit {
			return nil, fmt.Errorf("%w: component with %d edges exceeds exact limit %d", ErrBudgetExceeded, cg.M(), limit)
		}
		// A walk with no jump costs π = m, optimal by Lemma 2.1, so the
		// search would only find another tour of the same cost.
		if walk, jumps, _ := walkComponent(sp, cg); jumps == 0 {
			return walk, nil
		}
		in := tsp.NewInstance(graph.LineGraph(cg))
		ts := sp.Start("held_karp")
		tour, _, err := tsp.Exact(ctx, in)
		ts.End()
		if err != nil {
			return nil, err
		}
		return []int(tour), nil
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
