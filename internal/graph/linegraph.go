package graph

// LineGraph returns L(G): one vertex per edge of g (vertex i of L(G)
// corresponds to edge index i of g), with two vertices adjacent iff the
// underlying edges share an endpoint (§2.2). Pebbling schemes for g
// correspond to walks over L(G)'s vertices; perfect schemes are
// Hamiltonian paths (Proposition 2.1).
//
// The result is returned frozen: edge counts and adjacency spans are
// precomputed from g's compact index, so construction is a single pass
// with no hashing or incremental reallocation. Edge and neighbor order
// are identical to the straightforward map-backed construction the tests
// keep as an oracle. Callers that only need to walk L(G) neighborhoods
// should prefer NewLineGraphView, which skips materialization entirely.
func LineGraph(g *Graph) *Graph {
	c := g.ensureCSR()
	m := g.M()
	// deg_L(i) = deg(u) + deg(v) − 2 for edge i = {u,v}; duplicates are
	// impossible because two distinct simple edges share at most one
	// endpoint, so each L-edge is generated exactly once (at the shared
	// endpoint).
	degL := make([]int, m)
	total := 0
	for i := 0; i < m; i++ {
		e := g.edges[i]
		d := (c.start[e.U+1] - c.start[e.U]) + (c.start[e.V+1] - c.start[e.V]) - 2
		degL[i] = d
		total += d
	}
	total /= 2
	lg := &Graph{
		n:     m,
		edges: make([]Edge, 0, total),
		adj:   make([][]int, m),
	}
	// Carve all adjacency lists out of one backing array; the capacities
	// are exact, so the appends below never reallocate or overlap.
	flat := make([]int, 2*total)
	off := 0
	for i := 0; i < m; i++ {
		lg.adj[i] = flat[off : off : off+degL[i]]
		off += degL[i]
	}
	// For each vertex, all incident edges are pairwise adjacent in L(G);
	// iterate per vertex to get O(sum deg^2) without an edge-pair scan.
	for v := 0; v < g.n; v++ {
		span := c.edge[c.start[v]:c.start[v+1]]
		for x := 0; x < len(span); x++ {
			a := span[x]
			for y := x + 1; y < len(span); y++ {
				b := span[y]
				lg.edges = append(lg.edges, Edge{U: a, V: b}.Normalize())
				lg.adj[a] = append(lg.adj[a], b)
				lg.adj[b] = append(lg.adj[b], a)
			}
		}
	}
	lg.csr = buildCSR(lg.n, lg.edges)
	lg.frozen = true
	return lg
}

// IncidenceGraph returns the bipartite incidence graph B = (X, Y, E') of
// g used in Theorem 4.4's L-reduction: X = V(g) on the left, Y = E(g) on
// the right, with x joined to e iff x is an endpoint of e.
func IncidenceGraph(g *Graph) *Bipartite {
	b := NewBipartite(g.N(), g.M())
	for i, e := range g.Edges() {
		b.AddEdge(e.U, i)
		b.AddEdge(e.V, i)
	}
	return b
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
