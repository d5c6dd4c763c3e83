package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// randomGraphs returns a deterministic mix of shapes that exercise the
// CSR encoding: paths, stars, dense blobs, multi-component unions.
func randomGraphs(t *testing.T) []*Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var gs []*Graph
	gs = append(gs, New(0, nil), New(1, nil), New(5, nil)) // edgeless
	gs = append(gs, star(8))
	for i := 0; i < 8; i++ {
		n := 2 + rng.Intn(20)
		maxM := n * (n - 1) / 2
		m := n - 1 + rng.Intn(maxM-n+2)
		if m > maxM {
			m = maxM
		}
		gs = append(gs, RandomConnectedGraph(rng, n, m, 0))
	}
	sparse := func(n int) *Graph {
		m := n - 1 + rng.Intn(3)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		return RandomConnectedGraph(rng, n, m, 0)
	}
	for i := 0; i < 4; i++ {
		gs = append(gs, DisjointUnion(sparse(3+rng.Intn(8)), sparse(3+rng.Intn(8))))
	}
	// Spans longer than 24 take sortSpan's packed path.
	gs = append(gs, RandomConnectedGraph(rng, 40, 400, 0))
	return gs
}

// TestCSRMatchesMap is the core differential: New must answer every read
// accessor exactly like the map-backed oracle (including slice order),
// on edge lists that repeat pairs in both orientations.
func TestCSRMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, g := range randomGraphs(t) {
		edges := g.Edges()
		for i := len(edges) / 3; i > 0; i-- {
			e := edges[rng.Intn(len(edges))]
			if rng.Intn(2) == 0 {
				e.U, e.V = e.V, e.U
			}
			edges = slices.Insert(edges, rng.Intn(len(edges)+1), e)
		}
		checkAgainstOracle(t, g.N(), edges)
	}
}

// TestLineGraphMatchesReference pins the fast builder to the map-backed
// original: identical vertex count, edge multiset, and edge order (the
// solver's determinism depends on the order).
func TestLineGraphMatchesReference(t *testing.T) {
	for gi, g := range randomGraphs(t) {
		fast := LineGraph(g.Clone())
		ref := lineGraphReference(g.Clone())
		if fast.N() != ref.N() || fast.M() != ref.M() {
			t.Fatalf("graph %d: fast L(G) is %dv/%de, reference %dv/%de", gi, fast.N(), fast.M(), ref.N(), ref.M())
		}
		for i := 0; i < ref.M(); i++ {
			if fast.EdgeAt(i) != ref.EdgeAt(i) {
				t.Fatalf("graph %d: L(G) edge %d = %v, reference %v", gi, i, fast.EdgeAt(i), ref.EdgeAt(i))
			}
		}
		for v := 0; v < ref.N(); v++ {
			if !slices.Equal(fast.Neighbors(v), ref.Neighbors(v)) {
				t.Fatalf("graph %d: L(G) adjacency of %d differs: %v vs %v", gi, v, fast.Neighbors(v), ref.Neighbors(v))
			}
		}
	}
}

// TestLineGraphViewMatchesMaterialized checks the implicit view of L(G)
// that approx-1.25 reads instead of a materialized line graph: the
// neighbours of edge i are the other edges incident to its endpoints,
// and two distinct edges are adjacent iff they share an endpoint.
func TestLineGraphViewMatchesMaterialized(t *testing.T) {
	for gi, g := range randomGraphs(t) {
		ref := lineGraphReference(g.Clone())
		if g.M() != ref.N() {
			t.Fatalf("graph %d: view has %d vertices, reference %d", gi, g.M(), ref.N())
		}
		var buf []int
		for i := 0; i < ref.N(); i++ {
			e := g.EdgeAt(i)
			buf = buf[:0]
			for _, v := range []int{e.U, e.V} {
				for _, j := range g.IncidentEdges(v) {
					if j != i {
						buf = append(buf, j)
					}
				}
			}
			if !sameSet(buf, ref.Neighbors(i)) {
				t.Fatalf("graph %d: view neighbors of %d = %v, want set %v", gi, i, buf, ref.Neighbors(i))
			}
			for j := 0; j < ref.N(); j++ {
				if got, want := j != i && e.SharesEndpoint(g.EdgeAt(j)), ref.HasEdge(i, j); got != want {
					t.Fatalf("graph %d: edges %d and %d adjacent in view = %v, want %v", gi, i, j, got, want)
				}
			}
		}
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := slices.Clone(a), slices.Clone(b)
	slices.Sort(as)
	slices.Sort(bs)
	return slices.Equal(as, bs)
}
