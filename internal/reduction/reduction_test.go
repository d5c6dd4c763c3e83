package reduction

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"joinpebble/internal/core"
	"joinpebble/internal/graph"
	"joinpebble/internal/solver"
	"joinpebble/internal/tsp"
)

func TestGadgetDegrees(t *testing.T) {
	g := NewGadget()
	if g.N() != GadgetSize {
		t.Fatalf("gadget has %d vertices", g.N())
	}
	for _, c := range Corners {
		if g.Degree(c) != 2 {
			t.Fatalf("corner %d degree %d, want 2 (room for one external edge)", c, g.Degree(c))
		}
	}
	for v := 4; v < GadgetSize; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("internal %d degree %d, want 3", v, g.Degree(v))
		}
	}
}

func TestGadgetAllCornerPairsHamiltonian(t *testing.T) {
	// Figure 2 property 1: a Hamiltonian path exists between any two
	// corner nodes. Verified both by search and via the cached paths.
	g := NewGadget()
	for _, a := range Corners {
		for _, b := range Corners {
			if a == b {
				continue
			}
			path := CornerPath(a, b)
			if len(path) != GadgetSize || path[0] != a || path[len(path)-1] != b {
				t.Fatalf("corner path %d->%d malformed: %v", a, b, path)
			}
			for i := 1; i < len(path); i++ {
				if !g.HasEdge(path[i-1], path[i]) {
					t.Fatalf("corner path %d->%d uses non-edge", a, b)
				}
			}
		}
	}
}

func TestGadgetEndpointStructureExhaustive(t *testing.T) {
	// Enumerate every Hamiltonian path of the gadget and classify the
	// endpoint pairs: all corner pairs must occur; rim vertices must
	// never be endpoints; the documented deviation is that hub vertices
	// may pair with a corner (see NewGadget's doc comment).
	g := NewGadget()
	pairs := make(map[[2]int]bool)
	for _, p := range graph.AllHamiltonianPaths(g) {
		a, b := p[0], p[len(p)-1]
		if a > b {
			a, b = b, a
		}
		pairs[[2]int{a, b}] = true
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if !pairs[[2]int{i, j}] {
				t.Fatalf("missing corner endpoint pair (%d,%d)", i, j)
			}
		}
	}
	for p := range pairs {
		for _, v := range []int{p[0], p[1]} {
			if v >= rimX && v <= rimW {
				t.Fatalf("rim vertex %d is a Hamiltonian path endpoint (pair %v)", v, p)
			}
		}
		if p[0] >= hubE && p[1] >= hubE {
			t.Fatalf("two hub endpoints %v — stronger violation than documented", p)
		}
	}
}

func TestGadgetCornerPathsCoverAllPairsDeterministically(t *testing.T) {
	seen := make(map[[2]int]bool)
	for _, a := range Corners {
		for _, b := range Corners {
			if a != b {
				seen[[2]int{a, b}] = len(CornerPath(a, b)) == GadgetSize
			}
		}
	}
	if len(seen) != 12 {
		t.Fatalf("expected 12 ordered corner pairs, got %d", len(seen))
	}
}

// randDeg3Graph returns a random connected graph with max degree 3 and a
// feasible random edge count.
func randDeg3Graph(rng *rand.Rand, n int) *graph.Graph {
	maxM := n * (n - 1) / 2
	if cap := 3 * n / 2; cap < maxM {
		maxM = cap
	}
	m := n - 1 + rng.Intn(maxM-(n-1)+1)
	return graph.RandomConnectedGraph(rng, n, m, 3)
}

// randDeg4Graph returns a random connected graph with max degree 4 and at
// least one degree-4 vertex when possible.
func randDeg4Graph(rng *rand.Rand, n int) *graph.Graph {
	maxM := n * (n - 1) / 2
	if cap := 2 * n; cap < maxM { // 2m <= 4n
		maxM = cap
	}
	m := n - 1 + rng.Intn(maxM-(n-1)+1)
	return graph.RandomConnectedGraph(rng, n, m, 4)
}

func TestDegree4To3StructuralProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		g := randDeg4Graph(rng, 5+rng.Intn(4))
		r, err := NewDegree4To3(g)
		if err != nil {
			t.Fatal(err)
		}
		if d := r.H.MaxDegree(); d > 3 {
			t.Fatalf("trial %d: H has degree %d > 3", trial, d)
		}
		// Vertex count: plain vertices 1:1, degree-4 vertices 10:1.
		want := 0
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) == 4 {
				want += GadgetSize
			} else {
				want++
			}
		}
		if r.H.N() != want {
			t.Fatalf("trial %d: |V(H)|=%d want %d", trial, r.H.N(), want)
		}
		if r.H.N() > GadgetSize*g.N() {
			t.Fatalf("trial %d: H larger than the alpha=%d bound", trial, GadgetSize)
		}
	}
}

func TestDegree4To3RejectsDegree5(t *testing.T) {
	var gEdges []graph.Edge
	for v := 1; v < 6; v++ {
		gEdges = append(gEdges, graph.Edge{U: 0, V: v})
	}
	g := graph.New(6, gEdges)
	if _, err := NewDegree4To3(g); err == nil {
		t.Fatal("degree-5 vertex must be rejected")
	}
}

func TestDegree4To3ForwardPreservesJumps(t *testing.T) {
	// The lifted tour must have exactly the same number of jumps as the
	// input tour (the property-1 construction).
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g := randDeg4Graph(rng, 6)
		r, err := NewDegree4To3(g)
		if err != nil {
			t.Fatal(err)
		}
		gin, hin := r.Instances()
		tour := tsp.Tour(rng.Perm(g.N()))
		lifted, err := r.ForwardTour(tour)
		if err != nil {
			t.Fatal(err)
		}
		if err := hin.Validate(lifted); err != nil {
			t.Fatalf("trial %d: lifted tour invalid: %v", trial, err)
		}
		if gj, hj := gin.Jumps(tour), hin.Jumps(lifted); hj != gj {
			t.Fatalf("trial %d: jumps %d -> %d (must be preserved)", trial, gj, hj)
		}
	}
}

func TestDegree4To3LReduction(t *testing.T) {
	// Empirical Definition 4.2 check with exact optima: alpha bounded by
	// the gadget size, beta = 1 over optimal plus random H tours.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		g := randDeg4Graph(rng, 5)
		r, err := NewDegree4To3(g)
		if err != nil {
			t.Fatal(err)
		}
		if r.H.N() > tsp.MaxExactCities {
			continue // exact check infeasible; covered by jump-preservation test
		}
		var hTours []tsp.Tour
		for k := 0; k < 5; k++ {
			hTours = append(hTours, tsp.Tour(rng.Perm(r.H.N())))
		}
		check, err := CheckDegree4To3(r, hTours)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if check.Alpha > GadgetSize {
			t.Fatalf("trial %d: alpha=%.2f exceeds gadget bound %d", trial, check.Alpha, GadgetSize)
		}
		if check.MaxBetaViolation > 0 {
			t.Fatalf("trial %d: beta=1 violated by %d", trial, check.MaxBetaViolation)
		}
	}
}

func TestDegree4To3LReductionWithGadget(t *testing.T) {
	// Instances guaranteed to deploy a gadget (vertex 0 has degree 4,
	// everyone else stays below 4) — the case where the diamond actually
	// matters, checked with exact optima on both sides.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 6; trial++ {
		n := 6 + trial%3
		var g *graph.Graph
		for {
			edges := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}}
			deg := make([]int, n)
			for v := 1; v <= 4; v++ {
				deg[v] = 1
			}
			for tries := 0; tries < 40 && len(edges) < n+1; tries++ {
				u, v := 1+rng.Intn(n-1), 1+rng.Intn(n-1)
				e := graph.Edge{U: u, V: v}.Normalize()
				if u != v && !slices.Contains(edges, e) && deg[u] < 3 && deg[v] < 3 {
					edges = append(edges, e)
					deg[u]++
					deg[v]++
				}
			}
			if g = graph.New(n, edges); g.Connected() {
				break
			}
		}
		r, err := NewDegree4To3(g)
		if err != nil {
			t.Fatal(err)
		}
		if r.H.N() != GadgetSize+n-1 {
			t.Fatalf("trial %d: expected exactly one gadget, |V(H)|=%d", trial, r.H.N())
		}
		var hTours []tsp.Tour
		for k := 0; k < 6; k++ {
			hTours = append(hTours, tsp.Tour(rng.Perm(r.H.N())))
		}
		check, err := CheckDegree4To3(r, hTours)
		if err != nil {
			t.Fatal(err)
		}
		if check.MaxBetaViolation > 0 {
			t.Fatalf("trial %d: beta=1 violated by %d on gadget-bearing instance",
				trial, check.MaxBetaViolation)
		}
		if float64(check.OptB) > float64(GadgetSize)*float64(check.OptA) {
			t.Fatalf("trial %d: alpha bound broken: OPT(H)=%d OPT(G)=%d",
				trial, check.OptB, check.OptA)
		}
	}
}

func TestNiceifyProducesContiguousGadgets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		g := randDeg4Graph(rng, 6)
		r, err := NewDegree4To3(g)
		if err != nil {
			t.Fatal(err)
		}
		tour := tsp.Tour(rng.Perm(r.H.N()))
		nice := r.Niceify(tour)
		// Every gadget's vertices must be consecutive and the tour must
		// remain a permutation.
		hin := tsp.NewInstance(r.H)
		if err := hin.Validate(nice); err != nil {
			t.Fatalf("trial %d: niceified tour invalid: %v", trial, err)
		}
		for v := 0; v < g.N(); v++ {
			base := r.gadgetBase[v]
			if base < 0 {
				continue
			}
			first, last := -1, -1
			for i, hv := range nice {
				if hv >= base && hv < base+GadgetSize {
					if first == -1 {
						first = i
					}
					last = i
				}
			}
			if last-first+1 != GadgetSize {
				t.Fatalf("trial %d: gadget %d spans %d..%d", trial, v, first, last)
			}
		}
	}
}

func TestIncidenceReductionStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomConnectedGraph(rng, 6, 7, 3)
		r, err := NewTSPToPebble(g)
		if err != nil {
			t.Fatal(err)
		}
		if r.B.NLeft() != g.N() || r.B.NRight() != g.M() || r.B.M() != 2*g.M() {
			t.Fatalf("trial %d: incidence graph malformed", trial)
		}
	}
	var starEdges []graph.Edge
	for v := 1; v < 5; v++ {
		starEdges = append(starEdges, graph.Edge{U: 0, V: v})
	}
	star := graph.New(5, starEdges)
	if _, err := NewTSPToPebble(star); err == nil {
		t.Fatal("degree-4 input must be rejected by the 4.4 reduction")
	}
}

func TestIncidenceForwardSchemeCost(t *testing.T) {
	// π̂ of the lifted scheme = 2m + J(t) + 1 for any tour t.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		g := randDeg3Graph(rng, 5+rng.Intn(3))
		r, err := NewTSPToPebble(g)
		if err != nil {
			t.Fatal(err)
		}
		gin := tsp.NewInstance(g)
		tour := tsp.Tour(rng.Perm(g.N()))
		scheme, err := r.ForwardScheme(tour)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := core.Verify(r.B.Graph(), scheme)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := 2*g.M() + gin.Jumps(tour) + 1; cost != want {
			t.Fatalf("trial %d: scheme cost %d want %d", trial, cost, want)
		}
	}
}

func TestIncidenceOptimaMatch(t *testing.T) {
	// The tight relation behind Theorems 4.2/4.4: π̂(B) = 2m + J* + 1
	// where J* is the optimal jump count of the TSP-3(1,2) instance.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		g := graph.RandomConnectedGraph(rng, 5, 4+rng.Intn(4), 3)
		if 2*g.M() > tsp.MaxExactCities {
			continue
		}
		r, err := NewTSPToPebble(g)
		if err != nil {
			t.Fatal(err)
		}
		_, optG, err := tsp.Exact(context.Background(), tsp.NewInstance(g))
		if err != nil {
			t.Fatal(err)
		}
		optB, err := solver.OptimalCost(r.B.Graph())
		if err != nil {
			t.Fatal(err)
		}
		if want := r.PebbleCostFromTourCost(optG); optB != want {
			t.Fatalf("trial %d: π̂(B)=%d, predicted from OPT(G): %d (G=%v)", trial, optB, want, g)
		}
	}
}

func TestIncidenceLReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomConnectedGraph(rng, 5, 4+rng.Intn(3), 3)
		if 2*g.M() > tsp.MaxExactCities {
			continue
		}
		r, err := NewTSPToPebble(g)
		if err != nil {
			t.Fatal(err)
		}
		// Extra feasible schemes: lifted random tours.
		var extras []core.Scheme
		for k := 0; k < 4; k++ {
			s, err := r.ForwardScheme(tsp.Tour(rng.Perm(g.N())))
			if err != nil {
				t.Fatal(err)
			}
			extras = append(extras, s)
		}
		check, err := CheckIncidence(r, extras)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if check.Alpha > 3.5 { // paper: alpha = 3 asymptotically
			t.Fatalf("trial %d: alpha=%.2f", trial, check.Alpha)
		}
		if check.MaxBetaViolation > 0 {
			t.Fatalf("trial %d: beta=1 violated by %d", trial, check.MaxBetaViolation)
		}
	}
}

func TestHamPathDecisionViaPebbling(t *testing.T) {
	// Theorem 4.2 in action: G (degree <= 3) has a Hamiltonian path iff
	// π̂(IncidenceGraph(G)) == 2m + 1 (no jumps needed).
	cases := []struct {
		build func() *graph.Graph
		ham   bool
	}{
		{func() *graph.Graph { // path: trivially Hamiltonian
			return graph.New(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
		}, true},
		{func() *graph.Graph { // the net: claw-free non-traceable
			return graph.New(6, []graph.Edge{
				{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 0, V: 3},
				{U: 1, V: 4}, {U: 2, V: 5},
			})
		}, false},
		{func() *graph.Graph { // K_{1,3}: star, no Hamiltonian path
			return graph.New(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
		}, false},
	}
	for i, c := range cases {
		g := c.build()
		r, err := NewTSPToPebble(g)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := solver.OptimalCost(r.B.Graph())
		if err != nil {
			t.Fatal(err)
		}
		gotHam := opt == 2*g.M()+1
		if gotHam != c.ham {
			t.Fatalf("case %d: pebbling says ham=%v want %v (π̂=%d, 2m+1=%d)", i, gotHam, c.ham, opt, 2*g.M()+1)
		}
	}
}
