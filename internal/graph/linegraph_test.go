package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestLineGraphOfPath(t *testing.T) {
	// L(path with m edges) = path with m-1 edges.
	g := New(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	lg := LineGraph(g)
	if lg.N() != 3 || lg.M() != 2 {
		t.Fatalf("L(P4): n=%d m=%d", lg.N(), lg.M())
	}
	if !lg.HasEdge(0, 1) || !lg.HasEdge(1, 2) || lg.HasEdge(0, 2) {
		t.Fatal("L(P4) edges wrong")
	}
}

func TestLineGraphOfStar(t *testing.T) {
	// L(K_{1,n}) = K_n: all star edges share the center.
	var gEdges []Edge
	for v := 1; v < 5; v++ {
		gEdges = append(gEdges, Edge{U: 0, V: v})
	}
	g := New(5, gEdges)
	lg := LineGraph(g)
	if lg.N() != 4 || lg.M() != 6 {
		t.Fatalf("L(K_{1,4}): n=%d m=%d", lg.N(), lg.M())
	}
}

func TestLineGraphEdgeCount(t *testing.T) {
	// |E(L(G))| = sum over v of C(deg v, 2).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		b := RandomConnectedBipartite(rng, 4, 4, 10)
		g := b.Graph()
		lg := LineGraph(g)
		want := 0
		for v := 0; v < g.N(); v++ {
			d := g.Degree(v)
			want += d * (d - 1) / 2
		}
		if lg.M() != want {
			t.Fatalf("trial %d: |E(L)|=%d want %d", trial, lg.M(), want)
		}
	}
}

func TestLineGraphClawFree(t *testing.T) {
	// Harary: line graphs never contain an induced K_{1,3}. This is the
	// structural fact behind Theorem 3.1's DFS construction.
	rng := rand.New(rand.NewSource(5))
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl, nr := 3+r.Intn(4), 3+r.Intn(4)
		minM, maxM := nl+nr-1, nl*nr
		m := minM + r.Intn(maxM-minM+1)
		b := RandomConnectedBipartite(r, nl, nr, m)
		_, _, claw := findClaw(LineGraph(b.Graph()))
		return !claw
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFindClawOnStar(t *testing.T) {
	center, leaves, ok := findClaw(star(3))
	if !ok || center != 0 || leaves != [3]int{1, 2, 3} {
		t.Fatalf("K_{1,3} should contain the claw 0:[1 2 3], got ok=%v center=%d leaves=%v", ok, center, leaves)
	}
}

// star returns K_{1,k}: the smallest claw carrier for k >= 3.
func star(k int) *Graph {
	var edges []Edge
	for i := 1; i <= k; i++ {
		edges = append(edges, Edge{U: 0, V: i})
	}
	return New(k+1, edges)
}

// findClaw searches g for an induced K_{1,3}: a center with three
// pairwise non-adjacent neighbors. It returns the lowest such center
// and its lexicographically first leaf triple, or ok=false when g is
// claw-free.
func findClaw(g *Graph) (center int, leaves [3]int, ok bool) {
	for v := 0; v < g.N(); v++ {
		nb := slices.Clone(g.Neighbors(v))
		slices.Sort(nb)
		for i := range nb {
			for j := i + 1; j < len(nb); j++ {
				if g.HasEdge(nb[i], nb[j]) {
					continue
				}
				for k := j + 1; k < len(nb); k++ {
					if !g.HasEdge(nb[i], nb[k]) && !g.HasEdge(nb[j], nb[k]) {
						return v, [3]int{nb[i], nb[j], nb[k]}, true
					}
				}
			}
		}
	}
	return 0, [3]int{}, false
}

func TestLineGraphConnectedWhenGraphConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		b := RandomConnectedBipartite(rng, 3, 4, 8)
		if !LineGraph(b.Graph()).Connected() {
			t.Fatalf("trial %d: L(G) disconnected for connected G", trial)
		}
	}
}

func TestIncidenceGraph(t *testing.T) {
	g := New(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	b := IncidenceGraph(g)
	if b.NLeft() != 3 || b.NRight() != 2 {
		t.Fatalf("incidence sides: %dx%d", b.NLeft(), b.NRight())
	}
	if b.M() != 2*g.M() {
		t.Fatal("each edge contributes two incidences")
	}
	// Every right vertex (edge of g) must have degree exactly 2.
	for e := 0; e < b.NRight(); e++ {
		if b.RightDegree(e) != 2 {
			t.Fatalf("edge vertex %d degree %d", e, b.RightDegree(e))
		}
	}
}

func TestIncidenceLineGraphStructure(t *testing.T) {
	// Theorem 4.4: L(IncidenceGraph(G)) is G with each degree-i vertex
	// blown up into an i-clique, one clique vertex per incident edge.
	// Check vertex/edge counts: |V| = 2m(G) (incidences), and edges =
	// sum C(deg,2) (cliques) + m(G) (the two incidences of each g-edge
	// share that edge vertex).
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		g := RandomConnectedGraph(rng, 7, 9, 3)
		lb := LineGraph(IncidenceGraph(g).Graph())
		if lb.N() != 2*g.M() {
			t.Fatalf("trial %d: |V(L(B))|=%d want %d", trial, lb.N(), 2*g.M())
		}
		want := g.M()
		for v := 0; v < g.N(); v++ {
			d := g.Degree(v)
			want += d * (d - 1) / 2
		}
		if lb.M() != want {
			t.Fatalf("trial %d: |E(L(B))|=%d want %d", trial, lb.M(), want)
		}
	}
}

func TestHamiltonianPathOnPathAndCycle(t *testing.T) {
	p := New(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if path, ok := HamiltonianPath(p); !ok || len(path) != 4 {
		t.Fatal("path graph must have a Hamiltonian path")
	}
	c := New(4, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0},
	})
	if _, ok := HamiltonianPath(c); !ok {
		t.Fatal("cycle must have a Hamiltonian path")
	}
}

func TestHamiltonianPathRejectsStar(t *testing.T) {
	g := New(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	if _, ok := HamiltonianPath(g); ok {
		t.Fatal("K_{1,3} has no Hamiltonian path")
	}
}

func TestHamiltonianPathRejectsNet(t *testing.T) {
	// The "net" (triangle with three pendants) is the classic claw-free
	// graph without a Hamiltonian path.
	g := New(6, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 0, V: 3},
		{U: 1, V: 4}, {U: 2, V: 5},
	})
	if _, ok := HamiltonianPath(g); ok {
		t.Fatal("the net has no Hamiltonian path")
	}
}

func TestHamiltonianPathValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		g := RandomConnectedGraph(rng, 7, 12, 0)
		path, ok := HamiltonianPath(g)
		if !ok {
			continue
		}
		if len(path) != g.N() {
			t.Fatalf("trial %d: path visits %d of %d", trial, len(path), g.N())
		}
		seen := make([]bool, g.N())
		for i, v := range path {
			if seen[v] {
				t.Fatalf("trial %d: vertex %d repeated", trial, v)
			}
			seen[v] = true
			if i > 0 && !g.HasEdge(path[i-1], v) {
				t.Fatalf("trial %d: non-edge in path", trial)
			}
		}
	}
}

func TestHamiltonianPathBetween(t *testing.T) {
	g := New(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if path, ok := HamiltonianPathBetween(g, 0, 3); !ok || path[0] != 0 || path[3] != 3 {
		t.Fatal("endpoints of P4 must admit a Hamiltonian path")
	}
	if _, ok := HamiltonianPathBetween(g, 1, 2); ok {
		t.Fatal("internal vertices of P4 cannot both be endpoints")
	}
}

func TestAllHamiltonianPathsOnTriangle(t *testing.T) {
	g := New(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	paths := AllHamiltonianPaths(g)
	if len(paths) != 6 { // 3! orderings, all valid on K3
		t.Fatalf("K3 has %d Hamiltonian paths, want 6", len(paths))
	}
}

func TestHamiltonianPathEmptyAndSingle(t *testing.T) {
	if _, ok := HamiltonianPath(New(0, nil)); !ok {
		t.Fatal("empty graph trivially has one")
	}
	if p, ok := HamiltonianPath(New(1, nil)); !ok || len(p) != 1 {
		t.Fatal("singleton graph")
	}
	if _, ok := HamiltonianPath(New(2, nil)); ok {
		t.Fatal("two isolated vertices have no Hamiltonian path")
	}
}

// lineGraphReference is the straightforward map-backed line-graph
// construction: the oracle the differential tests compare LineGraph and
// LineGraphView against.
func lineGraphReference(g *Graph) *mapGraph {
	lg := newMapGraph(g.M())
	for v := 0; v < g.N(); v++ {
		inc := g.IncidentEdges(v)
		for i := 0; i < len(inc); i++ {
			for j := i + 1; j < len(inc); j++ {
				lg.addEdge(inc[i], inc[j])
			}
		}
	}
	return lg
}
