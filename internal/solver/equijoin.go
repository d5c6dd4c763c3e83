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

// Solve implements Solver. It writes the scheme's configurations
// straight off g's neighbor-sorted spans, with no per-component copy and
// no edge order, so it costs about one pass over g.
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
	return runContained(ctx, "equijoin", func() (core.Scheme, error) { return zigzag(ctx, g, root) })
}

// zigzag is the scheme of Solve: each component's boustrophedon,
// components ordered by their smallest vertex. A left vertex's
// neighbor-sorted incident-edge span lists its edges to every right
// vertex in ascending order, so the zigzag is those spans read forward
// and backward in turn, left vertices ascending. It writes what
// core.SchemeFromEdgeOrder makes of that edge order. Consecutive edges
// of a component share an endpoint, whose pebble stays, so every
// configuration holds the left vertex in A and the right one in B (the
// first edge's lower endpoint is the component's smallest vertex, a
// left one), and each component after the first opens with a jump
// configuration: its smallest vertex and the last right vertex. So the
// zigzag jumps only between components, and the scheme, one
// configuration per edge and per jump, is allocated once at its exact
// size m + β₀ − 1, β₀ counting the edge-bearing components as
// core.Betti0 does.
func zigzag(ctx context.Context, g *graph.Graph, sp *obs.Span) (core.Scheme, error) {
	zz := sp.Start("zigzag_order")
	defer zz.End()
	inRight := make([]bool, g.N())
	bicliques, err := checkBicliques(g, inRight)
	cComponentsSolved.Add(ctx, int64(bicliques))
	if err != nil {
		return nil, err
	}
	scheme := make(core.Scheme, 0, g.M()+bicliques-1)
	for ci := range g.ComponentCount() {
		comp, _ := g.Component(ci)
		if len(comp) < 2 {
			continue
		}
		if len(scheme) > 0 {
			scheme = append(scheme, core.Config{A: comp[0], B: scheme[len(scheme)-1].B})
		}
		row := 0
		for _, u := range comp {
			if inRight[u] {
				continue
			}
			span := g.IncidentEdgesByNeighbor(u)
			for k := range span {
				if row%2 == 1 {
					k = len(span) - 1 - k
				}
				e := g.EdgeAt(span[k])
				scheme = append(scheme, core.Config{A: u, B: e.U + e.V - u}) // B is the endpoint other than u
			}
			row++
		}
	}
	return scheme, nil
}

// checkBicliques checks that every edge-bearing component of g is
// complete bipartite, marking each one's right side in inRight, and
// returns how many it checked before the first that is not, with an
// error naming that one.
func checkBicliques(g *graph.Graph, inRight []bool) (int, error) {
	checked := 0
	for ci := range g.ComponentCount() {
		comp, _ := g.Component(ci)
		if len(comp) < 2 {
			continue
		}
		if !completeBipartite(g, comp, inRight) {
			return checked, fmt.Errorf("%w: the component of vertex %d is not complete bipartite", ErrStructure, comp[0])
		}
		checked++
	}
	return checked, nil
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
	_, err := checkBicliques(g, make([]bool, g.N()))
	return err == nil
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
