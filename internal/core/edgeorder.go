package core

import (
	"fmt"

	"joinpebble/internal/graph"
)

// EdgeOrderCost returns the π̂ cost of visiting the given edges in order:
// m + J + β₀-style startup, computed directly from the sequence. Each run
// of consecutive edges that share an endpoint costs one move per edge;
// switching between edges with no common endpoint costs one extra move
// (a jump, §2.2); the first edge of the whole sequence costs two
// placements. This is the pebbling-side view of the TSP tour cost
// m−1+J of Proposition 2.2.
func EdgeOrderCost(g *graph.Graph, order []int) int {
	if len(order) == 0 {
		return 0
	}
	return 1 + len(order) + jumps(g, order) // two placements, then a move per edge and per jump
}

// jumps counts the consecutive edges of order that share no endpoint.
func jumps(g *graph.Graph, order []int) int {
	j := 0
	for i := 1; i < len(order); i++ {
		if !g.EdgeAt(order[i-1]).SharesEndpoint(g.EdgeAt(order[i])) {
			j++
		}
	}
	return j
}

// SchemeFromEdgeOrder converts a deletion order over all edges of g into
// an explicit pebbling scheme (Proposition 2.2's translation from a TSP
// tour of the line graph back to a pebbling). Consecutive edges sharing an
// endpoint keep one pebble fixed; disjoint consecutive edges insert one
// intermediate configuration. The order must visit every edge of g
// exactly once.
func SchemeFromEdgeOrder(g *graph.Graph, order []int) (Scheme, error) {
	if len(order) != g.M() {
		return nil, fmt.Errorf("core: order visits %d edges, graph has %d", len(order), g.M())
	}
	seen := make([]bool, g.M())
	for _, idx := range order {
		if idx < 0 || idx >= g.M() {
			return nil, fmt.Errorf("core: edge index %d out of range", idx)
		}
		if seen[idx] {
			return nil, fmt.Errorf("core: edge %d visited twice", idx)
		}
		seen[idx] = true
	}
	if len(order) == 0 {
		return nil, nil
	}

	// One configuration per edge plus one intermediate per jump, so the
	// scheme is allocated once at its exact size.
	first := g.EdgeAt(order[0])
	s := make(Scheme, 1, len(order)+jumps(g, order))
	s[0] = Config{A: first.U, B: first.V}
	for i := 1; i < len(order); i++ {
		cur := g.EdgeAt(order[i])
		last := s[len(s)-1]
		// last covers order[i-1], a different edge than cur (the order
		// is duplicate-free), so at most one endpoint is shared.
		switch {
		case last.A == cur.U:
			s = append(s, Config{A: last.A, B: cur.V})
		case last.A == cur.V:
			s = append(s, Config{A: last.A, B: cur.U})
		case last.B == cur.U:
			s = append(s, Config{A: cur.V, B: last.B})
		case last.B == cur.V:
			s = append(s, Config{A: cur.U, B: last.B})
		default:
			// Jump: move pebble A to cur.U, then pebble B to cur.V.
			s = append(s, Config{A: cur.U, B: last.B}, Config{A: cur.U, B: cur.V})
		}
	}
	return s, nil
}

// EdgeOrderFromScheme extracts the deletion order of a complete scheme:
// after Verify accepts s, each edge is listed at the first configuration
// that covers it.
func EdgeOrderFromScheme(g *graph.Graph, s Scheme) ([]int, error) {
	if _, err := Verify(g, s); err != nil {
		return nil, err
	}
	listed := make([]bool, g.M())
	order := make([]int, 0, g.M())
	for _, c := range s {
		if idx, ok := g.EdgeIndex(c.A, c.B); ok && !listed[idx] {
			listed[idx] = true
			order = append(order, idx)
		}
	}
	return order, nil
}
