package solver

import (
	"context"
	"fmt"
	"strings"

	"joinpebble/internal/core"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
	"joinpebble/internal/tsp"
)

// Greedy runs the nearest-neighbour TSP heuristic on each component's
// line graph. No approximation guarantee beyond the universal factor 2,
// but fast and a useful baseline for the E14 ratio experiment.
type Greedy struct{}

// Name implements Solver.
func (Greedy) Name() string { return "greedy" }

// Solve implements Solver.
func (Greedy) Solve(ctx context.Context, g *graph.Graph) (core.Scheme, error) {
	return solvePerComponent(ctx, g, "greedy", func(_ context.Context, c component, sp *obs.Span) ([]int, error) {
		in := tsp.NewInstance(c.g.ComponentLineGraph(c.id))
		ts := sp.Start("nearest_neighbor")
		tour, _ := tsp.NearestNeighbor(in)
		ts.End()
		return c.edgeOrder(tour), nil
	})
}

// GreedyImproved runs nearest-neighbour followed by 2-opt/Or-opt local
// search on each component's line graph.
type GreedyImproved struct{}

// Name implements Solver.
func (GreedyImproved) Name() string { return "greedy+2opt" }

// Solve implements Solver.
func (GreedyImproved) Solve(ctx context.Context, g *graph.Graph) (core.Scheme, error) {
	return solvePerComponent(ctx, g, "greedy+2opt", func(_ context.Context, c component, sp *obs.Span) ([]int, error) {
		in := tsp.NewInstance(c.g.ComponentLineGraph(c.id))
		ts := sp.Start("nearest_neighbor")
		tour, _ := tsp.NearestNeighbor(in)
		ts.End()
		ts = sp.Start("two_opt")
		tour, _ = tsp.TwoOptImprove(in, tour)
		ts.End()
		return c.edgeOrder(tour), nil
	})
}

// PathCover chains the GreedyPathCover heuristic per component.
type PathCover struct{}

// Name implements Solver.
func (PathCover) Name() string { return "path-cover" }

// Solve implements Solver.
func (PathCover) Solve(ctx context.Context, g *graph.Graph) (core.Scheme, error) {
	return solvePerComponent(ctx, g, "path-cover", func(_ context.Context, c component, sp *obs.Span) ([]int, error) {
		in := tsp.NewInstance(c.g.ComponentLineGraph(c.id))
		ts := sp.Start("path_cover")
		tour, _ := tsp.GreedyPathCover(in)
		ts.End()
		return c.edgeOrder(tour), nil
	})
}

// CycleCover is the Papadimitriou–Yannakakis-style solver the paper's
// 7/6 remark points at (§4, citing [12]): per component, a minimum-weight
// cycle cover of the line graph (via the Hungarian assignment) is broken
// into paths and stitched into a tour.
type CycleCover struct{}

// Name implements Solver.
func (CycleCover) Name() string { return "cycle-cover" }

// Solve implements Solver.
func (CycleCover) Solve(ctx context.Context, g *graph.Graph) (core.Scheme, error) {
	return solvePerComponent(ctx, g, "cycle-cover", func(_ context.Context, c component, sp *obs.Span) ([]int, error) {
		in := tsp.NewInstance(c.g.ComponentLineGraph(c.id))
		ts := sp.Start("cycle_cover")
		tour, _, err := tsp.CycleCoverTour(in)
		ts.End()
		if err != nil {
			return nil, err
		}
		return c.edgeOrder(tour), nil
	})
}

// Route identifies a rung of the routing ladder: the structural fact
// about an instance that determines which solver handles it. RouteTable
// describes the rungs; the engine planner is the one place that walks
// it.
type Route int

// Ladder rungs, in the order RouteTable lists them.
const (
	// RoutePerfect: every component is complete bipartite — the defining
	// structure of equijoin graphs (§3.1) — so the linear-time perfect
	// pebbler of Theorems 3.2/4.1 applies and π = m is achieved.
	RoutePerfect Route = iota
	// RouteExact: every component's edge count fits the exponential
	// search budget, so the exact search is affordable.
	RouteExact
	// RouteApprox: fall back to the Theorem 3.1 1.25-approximation,
	// polynomial on any input.
	RouteApprox
)

// String names the route for tables and plan output.
func (r Route) String() string {
	switch r {
	case RoutePerfect:
		return "perfect"
	case RouteExact:
		return "exact"
	case RouteApprox:
		return "approx"
	}
	return fmt.Sprintf("route(%d)", int(r))
}

// All returns the solver lineup used by comparative experiments.
func All() []Solver {
	return []Solver{Naive{}, Greedy{}, GreedyImproved{}, PathCover{}, CycleCover{}, Approx125{}, Exact{}}
}

// Named returns the full named solver lineup — All plus the structural
// specialists — the single source the CLIs resolve -solver flags
// against.
func Named() []Solver {
	return append(All(), Equijoin{}, MatchingSolver{})
}

// ByName resolves a solver by its Name. "auto" and "" resolve to a nil
// Solver, which means the engine routes the instance: assign the result
// to engine.Planner.Solver as is. The error lists the known names so CLI
// usage messages stay accurate as the lineup grows.
func ByName(name string) (Solver, error) {
	if name == "auto" || name == "" {
		return nil, nil
	}
	all := Named()
	for _, s := range all {
		if s.Name() == name {
			return s, nil
		}
	}
	names := make([]string, len(all), len(all)+1)
	for i, s := range all {
		names[i] = s.Name()
	}
	names = append(names, "auto")
	return nil, fmt.Errorf("solver: unknown solver %q (known: %s)", name, strings.Join(names, ", "))
}
