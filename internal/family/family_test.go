package family

import (
	"context"
	"fmt"
	"testing"

	"joinpebble/internal/core"
	"joinpebble/internal/graph"
	"joinpebble/internal/tsp"
)

func TestSpiderStructure(t *testing.T) {
	for n := 1; n <= 8; n++ {
		b := Spider(n)
		if b.M() != 2*n {
			t.Fatalf("n=%d: m=%d want 2n", n, b.M())
		}
		g := b.Graph()
		if !g.Connected() {
			t.Fatalf("n=%d: spider disconnected", n)
		}
		// Center has degree n, middles degree 2, leaves degree 1.
		if g.Degree(b.LeftVertex(0)) != n {
			t.Fatalf("n=%d: center degree %d", n, g.Degree(b.LeftVertex(0)))
		}
		for i := 0; i < n; i++ {
			if g.Degree(b.RightVertex(i)) != 2 {
				t.Fatalf("n=%d: middle %d degree != 2", n, i)
			}
			if g.Degree(b.LeftVertex(1+i)) != 1 {
				t.Fatalf("n=%d: leaf %d degree != 1", n, i)
			}
		}
	}
}

func TestSpiderEdgeIndexHelpers(t *testing.T) {
	n := 4
	b := Spider(n)
	for i := 0; i < n; i++ {
		l, r := b.EdgeAt(spiderInnerEdge(i))
		if l != 0 || r != i {
			t.Fatalf("inner edge %d is (%d,%d)", i, l, r)
		}
		l, r = b.EdgeAt(spiderOuterEdge(i))
		if l != 1+i || r != i {
			t.Fatalf("outer edge %d is (%d,%d)", i, l, r)
		}
	}
}

func TestSpiderLineGraphIsCliquePlusPendants(t *testing.T) {
	// Figure 1b: L(G_n) is K_n with n pendant degree-1 vertices.
	for n := 2; n <= 7; n++ {
		lg := graph.LineGraph(Spider(n).Graph())
		if lg.N() != 2*n {
			t.Fatalf("n=%d: |V(L)|=%d", n, lg.N())
		}
		wantEdges := n*(n-1)/2 + n
		if lg.M() != wantEdges {
			t.Fatalf("n=%d: |E(L)|=%d want %d", n, lg.M(), wantEdges)
		}
		deg1 := 0
		for v := 0; v < lg.N(); v++ {
			if lg.Degree(v) == 1 {
				deg1++
			}
		}
		if deg1 != n {
			t.Fatalf("n=%d: %d pendants want n", n, deg1)
		}
		// Inner edges pairwise adjacent (the clique).
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !lg.HasEdge(spiderInnerEdge(i), spiderInnerEdge(j)) {
					t.Fatalf("n=%d: inner edges %d,%d not adjacent in L", n, i, j)
				}
			}
		}
	}
}

func TestSpiderOptimalCostAgainstExactTSP(t *testing.T) {
	// Proposition 2.2: π(G) = optimal tour cost of L(G) + 1. Check the
	// closed form against the exact search for every n it can reach.
	for n := 1; n <= 9; n++ {
		lg := graph.LineGraph(Spider(n).Graph())
		_, cost, err := tsp.Exact(context.Background(), tsp.NewInstance(lg))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cost+1, SpiderOptimalEffectiveCost(n); got != want {
			t.Fatalf("n=%d: exact π=%d closed form %d", n, got, want)
		}
	}
}

func TestSpiderMatchesPaperBoundEvenN(t *testing.T) {
	// Theorem 3.3: for the family, π = 1.25m − 1; exact for even n.
	for n := 2; n <= 10; n += 2 {
		m := 2 * n
		if got, want := SpiderOptimalEffectiveCost(n), 5*m/4-1; got != want {
			t.Fatalf("n=%d: π=%d want 1.25m-1=%d", n, got, want)
		}
	}
}

func TestSpiderNoHamiltonianPathInLineGraphForN3(t *testing.T) {
	// L(G_3) is the net — the smallest claw-free graph without a
	// Hamiltonian path — so G_3 cannot be pebbled perfectly (Prop 2.1).
	lg := graph.LineGraph(Spider(3).Graph())
	if _, ok := graph.HamiltonianPath(lg); ok {
		t.Fatal("L(G_3) must not have a Hamiltonian path")
	}
}

func TestSpiderOptimalSchemeRealizesClosedForm(t *testing.T) {
	// The explicit pairing scheme must be a valid, complete pebbling with
	// effective cost exactly the closed form — at sizes far beyond the
	// exact solver, this is the constructive proof of the upper bound
	// half of Theorem 3.3 (the lower bound is the B+/B− count).
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 64, 501} {
		b := Spider(n)
		g := b.Graph()
		order, err := spiderOptimalScheme(n)
		if err != nil {
			t.Fatal(err)
		}
		scheme, err := core.SchemeFromEdgeOrder(g, order)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		cost, err := core.Verify(g, scheme)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if want := SpiderOptimalEffectiveCost(n) + 1; cost != want {
			t.Fatalf("n=%d: pairing scheme π̂=%d want %d", n, cost, want)
		}
	}
}

func TestBuildFamilies(t *testing.T) {
	for _, name := range All() {
		b, err := Build(name, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.M() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
	}
	if _, err := Build("nope", 3); err == nil {
		t.Fatal("unknown family must error")
	}
}

func TestBuildCycleRoundsUp(t *testing.T) {
	b, err := Build(NameCycle, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b.M() != 6 {
		t.Fatalf("cycle(5) should round up to 6 edges, got %d", b.M())
	}
	b, err = Build(NameCycle, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.M() != 4 {
		t.Fatalf("cycle(2) should clamp to 4 edges, got %d", b.M())
	}
}

func TestSpiderRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Spider(0) must panic")
		}
	}()
	Spider(0)
}

// spiderOptimalScheme constructs an optimal pebbling scheme for
// Spider(n) explicitly, realizing SpiderOptimalEffectiveCost(n) at any
// size (the exact solver can only confirm it for small n). The deletion
// order is the pairing tour of L(G_n): consecutive inner edges are
// bridged through the clique while their outer pendants are picked up at
// segment ends, one jump per pair of inner edges:
//
//	outer_1 inner_1 inner_2 outer_2 | outer_3 inner_3 inner_4 outer_4 | ...
//
// Each four-edge segment is jump-free (outer_i shares u_i with inner_i;
// inner_i shares the center with inner_{i+1}); segments are separated by
// one jump, giving J = ceil((n−2)/2) — matching the B+/B− lower bound of
// Theorem 3.3's proof, so the scheme is optimal.
func spiderOptimalScheme(n int) ([]int, error) {
	var order []int
	for i := 0; i+1 < n; i += 2 {
		order = append(order,
			spiderOuterEdge(i), spiderInnerEdge(i),
			spiderInnerEdge(i+1), spiderOuterEdge(i+1))
	}
	if n%2 == 1 {
		order = append(order, spiderInnerEdge(n-1), spiderOuterEdge(n-1))
	}
	if len(order) != 2*n {
		return nil, fmt.Errorf("family: pairing order covers %d of %d edges", len(order), 2*n)
	}
	return order, nil
}

// spiderInnerEdge returns the edge index of the i-th inner edge c–u_i of
// Spider(n).
func spiderInnerEdge(i int) int { return 2 * i }

// spiderOuterEdge returns the edge index of the i-th outer edge u_i–l_i of
// Spider(n).
func spiderOuterEdge(i int) int { return 2*i + 1 }
