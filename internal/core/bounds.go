package core

import "joinpebble/internal/graph"

// LowerBound returns the universal lower bound on π̂(G): every edge needs
// at least one configuration and every edge-bearing component needs one
// startup move, so π̂(G) >= m + β₀(G) (Lemma 2.1 plus additivity). For a
// connected graph this is m+1, i.e. π(G) >= m.
func LowerBound(g *graph.Graph) int {
	if g.M() == 0 {
		return 0
	}
	return g.M() + Betti0(g)
}

// UpperBound returns Lemma 2.1's universal upper bound π̂(G) <= 2m: an
// optimal scheme never spends more than two moves per edge.
func UpperBound(g *graph.Graph) int {
	return 2 * g.M()
}

// Perfect reports whether the scheme is a perfect pebbling of g
// (Definition 2.3): valid, complete and with effective cost exactly m.
func Perfect(g *graph.Graph, s Scheme) bool {
	if _, err := Verify(g, s); err != nil {
		return false
	}
	return s.EffectiveCost(g) == g.M()
}

// NaiveScheme returns the trivially valid scheme that pays two moves per
// edge: visit the edges of each component in discovery order, always
// jumping. It realizes the 2m upper bound and is the baseline every
// solver must beat or match.
func NaiveScheme(g *graph.Graph) Scheme {
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	// SchemeFromEdgeOrder merges adjacent edges for free, so the result
	// is usually better than 2m; the bound is what matters.
	s, err := SchemeFromEdgeOrder(g, order)
	if err != nil {
		panic("core: naive scheme construction failed: " + err.Error())
	}
	return s
}
