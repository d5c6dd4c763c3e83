package graph

import "math/rand"

// RandomBipartite returns an Erdős–Rényi bipartite graph on nLeft x nRight
// vertices where each of the nLeft*nRight candidate edges is present with
// probability p. Deterministic for a given rng state.
func RandomBipartite(rng *rand.Rand, nLeft, nRight int, p float64) *Bipartite {
	var edges []Edge
	for l := 0; l < nLeft; l++ {
		for r := 0; r < nRight; r++ {
			if rng.Float64() < p {
				edges = append(edges, Edge{U: l, V: r})
			}
		}
	}
	return NewBipartite(nLeft, nRight, edges)
}

// RandomConnectedBipartite returns a connected bipartite graph on
// nLeft x nRight vertices with exactly m edges. It first threads a random
// spanning tree through all vertices (alternating sides), then adds random
// extra edges. Requires m >= nLeft+nRight-1 and m <= nLeft*nRight.
func RandomConnectedBipartite(rng *rand.Rand, nLeft, nRight, m int) *Bipartite {
	n := nLeft + nRight
	if m < n-1 {
		panic("graph: too few edges to connect")
	}
	if m > nLeft*nRight {
		panic("graph: too many edges for bipartite sides")
	}
	var edges []Edge
	seen := make(map[Edge]bool)
	add := func(l, r int) {
		if e := (Edge{U: l, V: r}); !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	// Random spanning tree: attach each vertex (in shuffled order, after a
	// seed pair) to a uniformly random already-attached vertex of the
	// opposite side.
	lefts := rng.Perm(nLeft)
	rights := rng.Perm(nRight)
	attachedL := []int{lefts[0]}
	attachedR := []int{}
	li, ri := 1, 0
	// First edge must bring in a right vertex.
	for len(attachedL) < nLeft || len(attachedR) < nRight {
		takeLeft := li < nLeft && (ri >= nRight || rng.Intn(2) == 0)
		if len(attachedR) == 0 {
			takeLeft = false
		}
		if takeLeft {
			l := lefts[li]
			li++
			add(l, attachedR[rng.Intn(len(attachedR))])
			attachedL = append(attachedL, l)
		} else {
			r := rights[ri]
			ri++
			add(attachedL[rng.Intn(len(attachedL))], r)
			attachedR = append(attachedR, r)
		}
	}
	// Top up with random extra edges until m.
	for len(edges) < m {
		add(rng.Intn(nLeft), rng.Intn(nRight))
	}
	return NewBipartite(nLeft, nRight, edges)
}

// RandomConnectedGraph returns a connected graph on n vertices with m
// edges (random tree plus random extras) and maximum degree at most
// maxDeg (0 means unbounded). Used to generate TSP-k(1,2) instances for
// the Section 4 reductions. It panics if the constraints are infeasible
// after a bounded number of attempts.
func RandomConnectedGraph(rng *rand.Rand, n, m, maxDeg int) *Graph {
	if m < n-1 {
		panic("graph: too few edges to connect")
	}
	if m > n*(n-1)/2 {
		panic("graph: more edges than vertex pairs")
	}
	if maxDeg > 0 && 2*m > n*maxDeg {
		panic("graph: edge count incompatible with degree bound")
	}
	for attempt := 0; attempt < 1000; attempt++ {
		g := tryRandomConnected(rng, n, m, maxDeg)
		if g != nil {
			return g
		}
	}
	panic("graph: could not satisfy degree bound; relax parameters")
}

func tryRandomConnected(rng *rand.Rand, n, m, maxDeg int) *Graph {
	var edges []Edge
	seen := make(map[Edge]bool)
	deg := make([]int, n)
	add := func(u, v int) {
		e := Edge{U: u, V: v}.Normalize()
		seen[e] = true
		edges = append(edges, e)
		deg[u]++
		deg[v]++
	}
	ok := func(v int) bool { return maxDeg == 0 || deg[v] < maxDeg }
	order := rng.Perm(n)
	for i := 1; i < n; i++ {
		v := order[i]
		// Attach to a random earlier vertex with spare degree.
		var cands []int
		for j := 0; j < i; j++ {
			if ok(order[j]) {
				cands = append(cands, order[j])
			}
		}
		if len(cands) == 0 {
			return nil
		}
		add(v, cands[rng.Intn(len(cands))])
	}
	for tries := 0; len(edges) < m && tries < 100*m+100; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !seen[Edge{U: u, V: v}.Normalize()] && ok(u) && ok(v) {
			add(u, v)
		}
	}
	// Random top-up can stall on dense targets; finish systematically.
	for u := 0; u < n && len(edges) < m; u++ {
		for v := u + 1; v < n && len(edges) < m; v++ {
			if !seen[Edge{U: u, V: v}] && ok(u) && ok(v) {
				add(u, v)
			}
		}
	}
	if len(edges) != m {
		return nil
	}
	return New(n, edges)
}
