package graph

import "slices"

// LineGraph returns L(G): one vertex per edge of g (vertex i of L(G)
// corresponds to edge index i of g), with two vertices adjacent iff the
// underlying edges share an endpoint (§2.2). Pebbling schemes for g
// correspond to walks over L(G)'s vertices; perfect schemes are
// Hamiltonian paths (Proposition 2.1).
//
// Edges are emitted per base vertex, each pair of its incident edges
// once, so construction is one pass with no hashing. Edge and neighbor
// order are identical to the straightforward map-backed construction the
// tests keep as an oracle. Callers that only need L(G) adjacency
// should ask Edge.SharesEndpoint and walk IncidentEdges instead, which
// skips materialization entirely.
func LineGraph(g *Graph) *Graph {
	c := &g.csr
	// Two distinct simple edges share at most one endpoint, so each
	// L-edge is generated exactly once (at the shared endpoint), and the
	// Σ deg(v)·(deg(v)−1)/2 count sizes the list exactly.
	total := 0
	for v := 0; v < g.n; v++ {
		d := c.degree(v)
		total += d * (d - 1) / 2
	}
	edges := make([]Edge, 0, total)
	for v := 0; v < g.n; v++ {
		span := c.edge[c.start[v]:c.start[v+1]]
		for x, a := range span {
			for _, b := range span[x+1:] {
				edges = append(edges, Edge{U: a, V: b})
			}
		}
	}
	return New(g.M(), edges)
}

// ComponentLineGraph returns L(C) for the connected component C numbered
// ci in Components' order: vertex k of L(C) stands for the k-th of C's
// edge ids (see Component). It pairs up the incident edges of C's
// vertices, ascending, as LineGraph does a graph's, and numbering the
// edges by rank keeps their order, so it returns LineGraph of C copied
// out as a graph of its own, edge for edge.
func (g *Graph) ComponentLineGraph(ci int) *Graph {
	verts, edges := g.Component(ci)
	var lines []Edge
	for _, v := range verts {
		span := g.IncidentEdges(v)
		for x, a := range span {
			ka, _ := slices.BinarySearch(edges, a)
			for _, b := range span[x+1:] {
				kb, _ := slices.BinarySearch(edges, b)
				lines = append(lines, Edge{U: ka, V: kb})
			}
		}
	}
	return New(len(edges), lines)
}

// IncidenceGraph returns the bipartite incidence graph B = (X, Y, E') of
// g used in Theorem 4.4's L-reduction: X = V(g) on the left, Y = E(g) on
// the right, with x joined to e iff x is an endpoint of e.
func IncidenceGraph(g *Graph) *Bipartite {
	edges := make([]Edge, 0, 2*g.M())
	for i, e := range g.edges {
		edges = append(edges, Edge{U: e.U, V: i}, Edge{U: e.V, V: i})
	}
	return NewBipartite(g.N(), g.M(), edges)
}

// HamiltonianPath searches g for a Hamiltonian path by depth-first
// backtracking with degree-based pruning and returns one if it exists.
// Exponential in the worst case; intended for the small gadget and
// line-graph instances the paper's exact arguments concern (Prop 2.1,
// Fig 2 analysis). Returns nil, false when no path exists.
func HamiltonianPath(g *Graph) ([]int, bool) {
	n := g.N()
	if n == 0 {
		return nil, true
	}
	if n == 1 {
		return []int{0}, true
	}
	if !g.Connected() {
		return nil, false
	}
	// Degree-1 vertices must be path endpoints, so more than two of them
	// rules a Hamiltonian path out immediately.
	var deg1 []int
	for v := 0; v < n; v++ {
		if g.Degree(v) == 1 {
			deg1 = append(deg1, v)
		}
	}
	if len(deg1) > 2 {
		return nil, false
	}

	used := make([]bool, n)
	path := make([]int, 0, n)
	var try func(v int) bool
	try = func(v int) bool {
		used[v] = true
		path = append(path, v)
		if len(path) == n {
			return true
		}
		for _, w := range g.Neighbors(v) {
			if !used[w] {
				if try(w) {
					return true
				}
			}
		}
		used[v] = false
		path = path[:len(path)-1]
		return false
	}
	starts := startCandidates(g, deg1)
	for _, s := range starts {
		if try(s) {
			return path, true
		}
	}
	return nil, false
}

// HamiltonianPathBetween searches for a Hamiltonian path with the given
// endpoints. Used to validate the diamond gadget of Fig 2, where a
// Hamiltonian path exists between any two corner vertices.
func HamiltonianPathBetween(g *Graph, from, to int) ([]int, bool) {
	n := g.N()
	if from == to {
		if n == 1 && from == 0 {
			return []int{0}, true
		}
		return nil, false
	}
	used := make([]bool, n)
	path := make([]int, 0, n)
	var try func(v int) bool
	try = func(v int) bool {
		used[v] = true
		path = append(path, v)
		if len(path) == n {
			if v == to {
				return true
			}
			used[v] = false
			path = path[:len(path)-1]
			return false
		}
		if v == to { // target reached too early
			used[v] = false
			path = path[:len(path)-1]
			return false
		}
		for _, w := range g.Neighbors(v) {
			if !used[w] {
				if try(w) {
					return true
				}
			}
		}
		used[v] = false
		path = path[:len(path)-1]
		return false
	}
	if try(from) {
		return path, true
	}
	return nil, false
}

// AllHamiltonianPaths enumerates every Hamiltonian path of g (each
// returned once per direction). Exponential; only for gadget-sized graphs.
func AllHamiltonianPaths(g *Graph) [][]int {
	n := g.N()
	var out [][]int
	if n == 0 {
		return out
	}
	used := make([]bool, n)
	path := make([]int, 0, n)
	var try func(v int)
	try = func(v int) {
		used[v] = true
		path = append(path, v)
		if len(path) == n {
			cp := make([]int, n)
			copy(cp, path)
			out = append(out, cp)
		} else {
			for _, w := range g.Neighbors(v) {
				if !used[w] {
					try(w)
				}
			}
		}
		used[v] = false
		path = path[:len(path)-1]
	}
	for s := 0; s < n; s++ {
		try(s)
	}
	return out
}

func startCandidates(g *Graph, deg1 []int) []int {
	if len(deg1) > 0 {
		return deg1[:1] // a degree-1 vertex must be an endpoint; start there
	}
	starts := make([]int, g.N())
	for i := range starts {
		starts[i] = i
	}
	return starts
}
