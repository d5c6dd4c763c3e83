// Package family constructs the named graph families the paper's
// combinatorial bounds are proved on: the G_n spiders of Theorem 3.3
// (Figure 1a), whose line graphs are K_n with n pendant vertices
// (Figure 1b), plus the matching, complete-bipartite, path, cycle and
// grid families used as controls in the experiments.
package family

import (
	"fmt"

	"joinpebble/internal/graph"
)

// Spider returns G_n from Figure 1a: a star K_{1,n} with every edge
// subdivided once. Vertices: center c, middles u_1..u_n, leaves l_1..l_n;
// edges c–u_i ("inner") and u_i–l_i ("outer"), m = 2n in total. Its line
// graph is K_n (the inner edges all share c) with n pendant vertices (each
// outer edge touches only its own inner edge) — exactly L(G_5) as drawn in
// Figure 1b. Theorem 3.3 shows π(G_n) = 1.25m − 1 asymptotically: any TSP
// tour of L(G_n) needs J >= m/4 − 1 jumps.
//
// The graph is returned as a Bipartite: the center and the leaves form
// one side, the middles the other.
func Spider(n int) *graph.Bipartite {
	if n < 1 {
		panic("family: spider needs n >= 1")
	}
	// Left: 0 = center, 1..n = leaves. Right: 0..n-1 = middles.
	edges := make([]graph.Edge, 0, 2*n)
	for i := 0; i < n; i++ {
		edges = append(edges,
			graph.Edge{U: 0, V: i},     // inner edge c–u_i: even index 2i
			graph.Edge{U: 1 + i, V: i}) // outer edge l_i–u_i: odd index 2i+1
	}
	return graph.NewBipartite(n+1, n, edges)
}

// SpiderOptimalEffectiveCost returns the exact optimal effective pebbling
// cost of Spider(n). In L(G_n) the n pendant leaves each have a single
// good edge, so any tour needs J >= ceil((n−2)/2) jumps (the B+/B−
// counting in Theorem 3.3's proof), and the pairing tour
// p1 k1 k2 p2 | p3 k3 k4 p4 | ... achieves it. With m = 2n this gives
// π(G_n) = m + floor((n−1)/2), which equals the paper's 1.25m − 1 exactly
// when n is even (Theorem 3.3's family is stated asymptotically).
// Verified against the exact solver in the family and experiment tests.
func SpiderOptimalEffectiveCost(n int) int {
	return 2*n + (n-1)/2
}

// Name labels the standard families for experiment tables.
type Name string

const (
	NameSpider   Name = "spider"
	NameMatching Name = "matching"
	NameComplete Name = "complete-bipartite"
	NamePath     Name = "path"
	NameCycle    Name = "cycle"
	NameGrid     Name = "grid"
)

// Build constructs a family member by name and size parameter. The size
// maps to: spider n, matching m, K_{n,n}, path m, cycle m (rounded up to
// even), grid n x n.
func Build(name Name, size int) (*graph.Bipartite, error) {
	switch name {
	case NameSpider:
		return Spider(size), nil
	case NameMatching:
		return graph.Matching(size), nil
	case NameComplete:
		return graph.CompleteBipartite(size, size), nil
	case NamePath:
		return graph.PathBipartite(size), nil
	case NameCycle:
		if size%2 == 1 {
			size++
		}
		if size < 4 {
			size = 4
		}
		return graph.CycleBipartite(size), nil
	case NameGrid:
		return graph.GridBipartite(size, size), nil
	}
	return nil, fmt.Errorf("family: unknown family %q", name)
}

// All lists the standard family names.
func All() []Name {
	return []Name{NameSpider, NameMatching, NameComplete, NamePath, NameCycle, NameGrid}
}
