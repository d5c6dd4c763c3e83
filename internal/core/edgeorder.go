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
		switch {
		case last.Covers(cur):
			// Degenerate: same unordered pair cannot repeat (order is
			// duplicate-free and edges are deduplicated), so this means
			// the intermediate below already covered it; unreachable.
			return nil, fmt.Errorf("core: duplicate configuration for edge %d", order[i])
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

// EdgeOrderFromScheme extracts the deletion order of a complete scheme.
func EdgeOrderFromScheme(g *graph.Graph, s Scheme) ([]int, error) {
	res, err := Simulate(g, s)
	if err != nil {
		return nil, err
	}
	if !res.Complete() {
		return nil, fmt.Errorf("core: scheme incomplete: %d of %d edges", res.DeletedCount, g.M())
	}
	return res.EdgeOrder, nil
}

// Compact removes removable waste from a valid complete scheme: any
// configuration that deletes no new edge and whose neighbors are within
// one pebble move of each other is dropped. The result is a valid
// complete scheme of equal or lower cost — never higher. It runs to a
// fixpoint; each pass is linear in the scheme length.
func Compact(g *graph.Graph, s Scheme) (Scheme, error) {
	cur := append(Scheme(nil), s...)
	if _, err := Verify(g, cur); err != nil {
		return nil, err
	}
	for {
		// Mark which configs delete a new edge under replay.
		deletes := make([]bool, len(cur))
		seen := make([]bool, g.M())
		for i, c := range cur {
			if idx, ok := g.EdgeIndex(c.A, c.B); ok && !seen[idx] {
				seen[idx] = true
				deletes[i] = true
			}
		}
		dropped := false
		out := cur[:0:0]
		for i := 0; i < len(cur); i++ {
			if deletes[i] {
				out = append(out, cur[i])
				continue
			}
			// Wasted config: droppable if the bridge stays a legal move.
			prevOK := len(out) == 0
			var succ *Config
			if i+1 < len(cur) {
				succ = &cur[i+1]
			}
			if !prevOK && (succ == nil || succ.MovesFrom(out[len(out)-1]) == 1) {
				dropped = true
				continue
			}
			if prevOK && succ != nil {
				// Leading waste: the successor simply becomes first.
				dropped = true
				continue
			}
			if succ == nil && len(out) > 0 {
				// Trailing waste: always droppable.
				dropped = true
				continue
			}
			out = append(out, cur[i])
		}
		cur = out
		if !dropped {
			break
		}
	}
	if _, err := Verify(g, cur); err != nil {
		return nil, fmt.Errorf("core: compaction broke the scheme: %w", err)
	}
	return cur, nil
}

// Concat joins schemes for disjoint parts of a graph into one scheme for
// the whole. The additivity lemma (Lemma 2.2) guarantees the result is
// optimal when the parts are the connected components and each part's
// scheme is optimal: π̂(G ⊔ H) = π̂(G) + π̂(H). Bridging from one part to
// the next costs two moves, exactly the +1-per-extra-component that π̂
// carries over π.
func Concat(parts ...Scheme) Scheme {
	var out Scheme
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		if len(out) == 0 {
			out = append(out, p...)
			continue
		}
		last := out[len(out)-1]
		switch p[0].MovesFrom(last) {
		case 0:
			// Same configuration; drop the duplicate.
			out = append(out, p[1:]...)
		case 1:
			out = append(out, p...)
		default:
			// Two-move bridge: move pebble A into the new part first.
			out = append(out, Config{A: p[0].A, B: last.B})
			out = append(out, p...)
		}
	}
	return out
}
