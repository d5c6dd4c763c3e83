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

// Solve implements Solver.
func (Equijoin) Solve(ctx context.Context, g *graph.Graph) (core.Scheme, error) {
	return solvePerComponent(ctx, g, "equijoin", equijoinComponentOrder)
}

func equijoinComponentOrder(_ context.Context, cg *graph.Graph, sp *obs.Span) ([]int, error) {
	zz := sp.Start("zigzag_order")
	defer zz.End()
	left, right, err := completeBipartiteSides(cg)
	if err != nil {
		return nil, err
	}
	order := make([]int, cg.M())
	zigzagEmit(cg, left, right, order)
	return order, nil
}

// zigzagEmit writes the boustrophedon edge order of Lemma 3.2 into out,
// which the caller preallocates to cg.M() = |left|·|right| — the kernel
// itself only indexes, so the emission loop stays allocation-free no
// matter how large the component is.
//
//joinpebble:hotpath
func zigzagEmit(cg *graph.Graph, left, right, out []int) {
	k := 0
	for i, u := range left {
		if i%2 == 0 {
			for j := 0; j < len(right); j++ {
				idx, _ := cg.EdgeIndex(u, right[j])
				out[k] = idx
				k++
			}
		} else {
			for j := len(right) - 1; j >= 0; j-- {
				idx, _ := cg.EdgeIndex(u, right[j])
				out[k] = idx
				k++
			}
		}
	}
}

// completeBipartiteSides verifies cg is a complete bipartite graph and
// returns its two sides. Linear in the size of cg: it 2-colors the graph
// and then checks m == |L|·|R| — which for a simple bipartite graph
// forces completeness.
func completeBipartiteSides(cg *graph.Graph) (left, right []int, err error) {
	side, ok := graph.IsBipartition(cg)
	if !ok {
		return nil, nil, fmt.Errorf("%w: component is not bipartite", ErrStructure)
	}
	for v := 0; v < cg.N(); v++ {
		if side[v] {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	if cg.M() != len(left)*len(right) {
		return nil, nil, fmt.Errorf("%w: component is not complete bipartite (m=%d, sides %dx%d)",
			ErrStructure, cg.M(), len(left), len(right))
	}
	return left, right, nil
}

// IsEquijoinGraph reports whether every edge-bearing component of g is a
// complete bipartite graph, i.e. whether g could be the join graph of an
// equijoin (§3.1). Linear: 2-color once, then per component compare the
// edge count against the product of the side sizes.
func IsEquijoinGraph(g *graph.Graph) bool {
	side, ok := graph.IsBipartition(g)
	if !ok {
		return false
	}
	comps := g.Components()
	compID := make([]int, g.N())
	left := make([]int, len(comps))
	right := make([]int, len(comps))
	edges := make([]int, len(comps))
	for ci, comp := range comps {
		for _, v := range comp {
			compID[v] = ci
			if side[v] {
				left[ci]++
			} else {
				right[ci]++
			}
		}
	}
	for _, e := range g.Edges() {
		edges[compID[e.U]]++
	}
	for ci, comp := range comps {
		if len(comp) < 2 {
			continue
		}
		if edges[ci] != left[ci]*right[ci] {
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
