package solver

import (
	"context"
	"fmt"

	"joinpebble/internal/core"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
)

// Equijoin is the linear-time perfect pebbler of Theorems 3.2 and 4.1.
// It requires every connected component of the input to be a complete
// bipartite graph — the defining structure of equijoin join graphs
// (§3.1: all R-tuples with value v join all S-tuples with value v) — and
// produces a perfect scheme (π(G) = m) by pebbling each component in the
// boustrophedon order of Lemma 3.2:
//
//	(u1,v1) (u1,v2) ... (u1,vl) (u2,vl) (u2,v(l-1)) ... (u2,v1) (u3,v1) ...
//
// This is the pebbling-model shadow of the merge phase of sort-merge
// join, as §4 remarks. Solve returns an error if a component is not
// complete bipartite.
type Equijoin struct{}

// Name implements Solver.
func (Equijoin) Name() string { return "equijoin" }

// Solve implements Solver. It reads every component's order straight off
// g's spans, with no per-component copy, so it costs about one pass over
// g.
func (Equijoin) Solve(ctx context.Context, g *graph.Graph) (core.Scheme, error) {
	if g.M() == 0 {
		return core.Scheme{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cSolves.Inc(ctx)
	root := obs.StartSpanCtx(ctx, "equijoin")
	defer root.End()
	root.SetInt("edges", int64(g.M()))
	order, err := runComponentOrder(ctx, "equijoin", func() ([]int, error) { return zigzagOrder(ctx, g, root) })
	if err != nil {
		return nil, err
	}
	return schemeFromOrderTimed(ctx, root, g, order)
}

// zigzagOrder is the edge order of Solve: each component's
// boustrophedon, components ordered by their smallest vertex. A left
// vertex's neighbor-sorted incident-edge span lists its edges to every
// right vertex in ascending order, so the zigzag is those spans read
// forward and backward in turn, left vertices ascending.
func zigzagOrder(ctx context.Context, g *graph.Graph, sp *obs.Span) ([]int, error) {
	zz := sp.Start("zigzag_order")
	defer zz.End()
	order := make([]int, 0, g.M())
	inRight := make([]bool, g.N())
	for ci := range g.ComponentCount() {
		comp, _ := g.Component(ci)
		if len(comp) < 2 {
			continue
		}
		if !completeBipartite(g, comp, inRight) {
			return nil, fmt.Errorf("%w: the component of vertex %d is not complete bipartite", ErrStructure, comp[0])
		}
		cComponentsSolved.Inc(ctx)
		i := 0
		for _, u := range comp {
			if inRight[u] {
				continue
			}
			span := g.IncidentEdgesByNeighbor(u)
			if i%2 == 0 {
				order = append(order, span...)
			} else {
				for j := len(span) - 1; j >= 0; j-- {
					order = append(order, span[j])
				}
			}
			i++
		}
	}
	return order, nil
}

// completeBipartite reports whether the connected component comp
// (vertices ascending) of g is complete bipartite, and marks its right
// side in inRight. Its left side is that of its smallest vertex, so if
// it is complete bipartite its right side R is exactly that vertex's
// neighborhood. The check takes that R, and requires every edge to cross
// between R and the rest L and every vertex of L to have |R| neighbors.
// Linear in the size of the component.
func completeBipartite(g *graph.Graph, comp []int, inRight []bool) bool {
	for _, w := range g.Neighbors(comp[0]) {
		inRight[w] = true
	}
	nRight := g.Degree(comp[0])
	for _, v := range comp {
		if !inRight[v] && g.Degree(v) != nRight {
			return false
		}
		for _, w := range g.Neighbors(v) {
			if inRight[w] == inRight[v] {
				return false
			}
		}
	}
	return true
}

// IsEquijoinGraph reports whether every edge-bearing component of g is a
// complete bipartite graph, i.e. whether g could be the join graph of an
// equijoin (§3.1). Linear, by the check Solve runs.
func IsEquijoinGraph(g *graph.Graph) bool {
	inRight := make([]bool, g.N())
	for ci := range g.ComponentCount() {
		if comp, _ := g.Component(ci); len(comp) > 1 && !completeBipartite(g, comp, inRight) {
			return false
		}
	}
	return true
}

// MatchingSolver pebbles a perfect matching at the Lemma 2.4 cost
// π̂ = 2m: one configuration per edge, jumping between all of them. It
// rejects graphs with any vertex of degree > 1.
type MatchingSolver struct{}

// Name implements Solver.
func (MatchingSolver) Name() string { return "matching" }

// Solve implements Solver.
func (MatchingSolver) Solve(ctx context.Context, g *graph.Graph) (core.Scheme, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if g.MaxDegree() > 1 {
		return nil, fmt.Errorf("%w: graph is not a matching (max degree %d)", ErrStructure, g.MaxDegree())
	}
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	return core.SchemeFromEdgeOrder(g, order)
}
