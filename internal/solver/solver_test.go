package solver

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"joinpebble/internal/core"
	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/workload"
)

// randomConnectedBip returns a random connected bipartite graph with a
// feasible random edge count, small enough for the exact solver.
func randomConnectedBip(r *rand.Rand) *graph.Graph {
	nl, nr := 2+r.Intn(3), 2+r.Intn(3)
	minM, maxM := nl+nr-1, nl*nr
	m := minM + r.Intn(maxM-minM+1)
	if m > 14 {
		m = 14
	}
	if m < minM {
		m = minM
	}
	return graph.RandomConnectedBipartite(r, nl, nr, m).Graph()
}

func TestExactOnKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int // optimal π̂
	}{
		{"single edge", graph.Matching(1).Graph(), 2},
		{"matching-3", graph.Matching(3).Graph(), 6},      // Lemma 2.4: 2m
		{"path-4", graph.PathBipartite(4).Graph(), 5},     // perfect: m+1
		{"K23", graph.CompleteBipartite(2, 3).Graph(), 7}, // perfect: m+1
		{"cycle-6", graph.CycleBipartite(6).Graph(), 7},   // perfect: m+1
		{"spider-4", family.Spider(4).Graph(), family.SpiderOptimalEffectiveCost(4) + 1},
	}
	for _, c := range cases {
		scheme, cost, err := SolveAndVerify(context.Background(), Exact{}, c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cost != c.want {
			t.Fatalf("%s: π̂=%d want %d", c.name, cost, c.want)
		}
		if len(scheme) == 0 {
			t.Fatalf("%s: empty scheme", c.name)
		}
	}
}

func TestExactIsOptimalAgainstBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnectedBip(r)
		_, cost, err := SolveAndVerify(context.Background(), Exact{}, g)
		if err != nil {
			return false
		}
		return cost >= core.LowerBound(g) && cost <= core.UpperBound(g)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNoSolverBeatsExact(t *testing.T) {
	// The exact solver is ground truth: every other solver's verified
	// cost must be >= exact on the same graph.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		g := randomConnectedBip(rng)
		_, optimal, err := SolveAndVerify(context.Background(), Exact{}, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Solver{Naive{}, Greedy{}, GreedyImproved{}, PathCover{}, CycleCover{}, Approx125{}} {
			_, cost, err := SolveAndVerify(context.Background(), s, g)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, s.Name(), err)
			}
			if cost < optimal {
				t.Fatalf("trial %d: %s cost %d beats exact %d on %v", trial, s.Name(), cost, optimal, g)
			}
		}
	}
}

func TestExactAdditivity(t *testing.T) {
	// Lemma 2.2 observed computationally: π̂(G ⊔ H) = π̂(G) + π̂(H).
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomConnectedBipartite(rng, 2, 3, 5).Graph()
		h := graph.RandomConnectedBipartite(rng, 3, 2, 6).Graph()
		u := graph.DisjointUnion(g, h)
		cg, err1 := OptimalCost(g)
		ch, err2 := OptimalCost(h)
		cu, err3 := OptimalCost(u)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatal(err1, err2, err3)
		}
		if cu != cg+ch {
			t.Fatalf("trial %d: π̂(G⊔H)=%d, π̂(G)+π̂(H)=%d", trial, cu, cg+ch)
		}
	}
}

func TestEquijoinPerfectOnCompleteBipartite(t *testing.T) {
	// Lemma 3.2 / Theorem 3.2: complete bipartite graphs pebble
	// perfectly via the boustrophedon order.
	for _, kl := range [][2]int{{1, 1}, {1, 5}, {2, 2}, {3, 4}, {5, 5}, {7, 3}} {
		g := graph.CompleteBipartite(kl[0], kl[1]).Graph()
		scheme, cost, err := SolveAndVerify(context.Background(), Equijoin{}, g)
		if err != nil {
			t.Fatalf("K_{%d,%d}: %v", kl[0], kl[1], err)
		}
		if cost != g.M()+1 {
			t.Fatalf("K_{%d,%d}: π̂=%d want m+1=%d", kl[0], kl[1], cost, g.M()+1)
		}
		if !core.Perfect(g, scheme) {
			t.Fatalf("K_{%d,%d}: scheme not perfect", kl[0], kl[1])
		}
	}
}

func TestEquijoinOnUnionOfCompleteBipartite(t *testing.T) {
	// An equijoin graph: disjoint union of complete bipartite components
	// (one per join value). Theorem 3.2: pebbled perfectly overall.
	u := graph.DisjointUnion(
		graph.CompleteBipartite(2, 3).Graph(),
		graph.DisjointUnion(graph.CompleteBipartite(1, 4).Graph(), graph.CompleteBipartite(3, 3).Graph()),
	)
	scheme, cost, err := SolveAndVerify(context.Background(), Equijoin{}, u)
	if err != nil {
		t.Fatal(err)
	}
	if !core.Perfect(u, scheme) {
		t.Fatal("equijoin union should pebble perfectly")
	}
	if want := u.M() + core.Betti0(u); cost != want {
		t.Fatalf("π̂=%d want m+β₀=%d", cost, want)
	}
}

func TestEquijoinRejectsNonCompleteBipartite(t *testing.T) {
	g := graph.PathBipartite(3).Graph() // path of 3 edges is not complete bipartite
	if _, err := (Equijoin{}).Solve(context.Background(), g); err == nil {
		t.Fatal("path must be rejected by the equijoin solver")
	}
	tri := graph.New(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	if _, err := (Equijoin{}).Solve(context.Background(), tri); err == nil {
		t.Fatal("triangle must be rejected")
	}
}

// inducedSubgraph returns the subgraph of g induced by vs, renumbered
// 0..len(vs)-1 in the order given, plus the old->new map (-1 for
// excluded vertices). Edges keep g's order.
func inducedSubgraph(g *graph.Graph, vs []int) (*graph.Graph, []int) {
	remap := make([]int, g.N())
	for i := range remap {
		remap[i] = -1
	}
	for i, v := range vs {
		remap[v] = i
	}
	var edges []graph.Edge
	for _, e := range g.Edges() {
		if remap[e.U] >= 0 && remap[e.V] >= 0 {
			edges = append(edges, graph.Edge{U: remap[e.U], V: remap[e.V]})
		}
	}
	return graph.New(len(vs), edges), remap
}

// whole returns g as a single component: every vertex and every edge.
// The component functions expect g connected.
func whole(g *graph.Graph) component {
	c := component{g: g, verts: make([]int, g.N()), edges: make([]int, g.M())}
	for v := range c.verts {
		c.verts[v] = v
	}
	for i := range c.edges {
		c.edges[i] = i
	}
	return c
}

// inPlaceComponents returns the edge-bearing components of g as
// solvePerComponent hands them over.
func inPlaceComponents(g *graph.Graph) []component {
	var comps []component
	for ci := range g.ComponentCount() {
		if verts, edges := g.Component(ci); len(edges) > 0 {
			comps = append(comps, component{g: g, id: ci, verts: verts, edges: edges})
		}
	}
	return comps
}

// zigzagByComponentCopy is the Thm 3.2 order built the way the solver
// once built it: copy each component out, 2-color the copy, and probe
// EdgeIndex for every (left, right) pair in boustrophedon order.
func zigzagByComponentCopy(g *graph.Graph) []int {
	var order []int
	for _, comp := range g.Components() {
		if len(comp) < 2 {
			continue
		}
		cg, local := inducedSubgraph(g, comp)
		var global []int // global id of each local edge
		for i := 0; i < g.M(); i++ {
			if local[g.EdgeAt(i).U] >= 0 {
				global = append(global, i)
			}
		}
		side, _ := graph.IsBipartition(cg)
		var left, right []int
		for v := 0; v < cg.N(); v++ {
			if side[v] {
				left = append(left, v)
			} else {
				right = append(right, v)
			}
		}
		for i, u := range left {
			for j := range right {
				if i%2 == 1 {
					j = len(right) - 1 - j
				}
				idx, _ := cg.EdgeIndex(u, right[j])
				order = append(order, global[idx])
			}
		}
	}
	return order
}

// TestEquijoinMatchesComponentCopy: reading the zigzag off the parent
// graph's sorted spans gives the same scheme, byte for byte, as copying
// each component out, on unions of complete bipartite graphs whose
// vertices interleave across components and whose edges arrive in
// random order.
func TestEquijoinMatchesComponentCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		var edges []graph.Edge
		n := 0
		for k := 1 + rng.Intn(6); k > 0; k-- {
			a, b := 1+rng.Intn(5), 1+rng.Intn(30)
			for i := 0; i < a; i++ {
				for j := 0; j < b; j++ {
					edges = append(edges, graph.Edge{U: n + i, V: n + a + j})
				}
			}
			n += a + b
		}
		n += rng.Intn(3) // isolated vertices
		pi := rng.Perm(n)
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for i, e := range edges {
			edges[i] = graph.Edge{U: pi[e.U], V: pi[e.V]}
		}
		g := graph.New(n, edges)
		want, err := core.SchemeFromEdgeOrder(g, zigzagByComponentCopy(g))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Equijoin{}.Solve(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: scheme differs from the component-copy zigzag", trial)
		}
	}
}

// TestEquijoinAllocatesTwice: a Thm 3.2 solve on a built graph
// allocates its right-side marks and the scheme, at its exact size.
func TestEquijoinAllocatesTwice(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	l, r := workload.Equijoin{LeftSize: 424, RightSize: 424, Domain: 424, Skew: 1.2}.Generate(1)
	g := join.EquiGraph(l.Ints(), r.Ints()).Graph()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := (Equijoin{}).Solve(ctx, g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("Equijoin.Solve made %v allocations, want 2", allocs)
	}
	s, err := Equijoin{}.Solve(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if want := g.M() + core.Betti0(g) - 1; len(s) != want || cap(s) != want {
		t.Fatalf("scheme of %d configurations, capacity %d, want m + β₀ − 1 = %d", len(s), cap(s), want)
	}
}

func TestEquijoinMatchesExact(t *testing.T) {
	// On equijoin graphs, the linear-time pebbler must equal the
	// exponential exact solver (Theorem 4.1).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := graph.CompleteBipartite(1+rng.Intn(3), 1+rng.Intn(4)).Graph()
		_, ce, err := SolveAndVerify(context.Background(), Exact{}, g)
		if err != nil {
			t.Fatal(err)
		}
		_, cq, err := SolveAndVerify(context.Background(), Equijoin{}, g)
		if err != nil {
			t.Fatal(err)
		}
		if ce != cq {
			t.Fatalf("trial %d: equijoin=%d exact=%d", trial, cq, ce)
		}
	}
}

func TestIsEquijoinGraph(t *testing.T) {
	if !IsEquijoinGraph(graph.CompleteBipartite(3, 4).Graph()) {
		t.Fatal("K_{3,4} is an equijoin graph")
	}
	if !IsEquijoinGraph(graph.Matching(4).Graph()) {
		t.Fatal("a matching is an equijoin graph (K_{1,1} components)")
	}
	if IsEquijoinGraph(graph.PathBipartite(3).Graph()) {
		t.Fatal("P4 is not an equijoin graph")
	}
	if IsEquijoinGraph(family.Spider(3).Graph()) {
		t.Fatal("the spider is not an equijoin graph")
	}
}

func TestMatchingSolverLemma24(t *testing.T) {
	for _, m := range []int{1, 2, 5, 16} {
		g := graph.Matching(m).Graph()
		scheme, cost, err := SolveAndVerify(context.Background(), MatchingSolver{}, g)
		if err != nil {
			t.Fatal(err)
		}
		if cost != 2*m {
			t.Fatalf("m=%d: π̂=%d want 2m (Lemma 2.4)", m, cost)
		}
		if eff := scheme.EffectiveCost(g); eff != m {
			t.Fatalf("m=%d: π=%d want m", m, eff)
		}
	}
	if _, err := (MatchingSolver{}).Solve(context.Background(), graph.PathBipartite(2).Graph()); err == nil {
		t.Fatal("non-matching must be rejected")
	}
}

func TestApprox125Bound(t *testing.T) {
	// Theorem 3.1: the DFS-partition scheme costs at most
	// m + floor((m-1)/4) + 1 per connected component.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 60; trial++ {
		g := randomConnectedBip(rng)
		_, cost, err := SolveAndVerify(context.Background(), Approx125{}, g)
		if err != nil {
			t.Fatalf("trial %d on %v: %v", trial, g, err)
		}
		if bound := ApproxCostBound(g); cost > bound {
			t.Fatalf("trial %d: cost %d exceeds Theorem 3.1 bound %d on %v", trial, cost, bound, g)
		}
	}
}

func TestApprox125OnSpiders(t *testing.T) {
	// The hard family: approximation must stay within the bound and above
	// the known optimum.
	for n := 1; n <= 40; n++ {
		g := family.Spider(n).Graph()
		_, cost, err := SolveAndVerify(context.Background(), Approx125{}, g)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if cost > ApproxCostBound(g) {
			t.Fatalf("n=%d: cost %d exceeds bound %d", n, cost, ApproxCostBound(g))
		}
		if opt := family.SpiderOptimalEffectiveCost(n) + 1; cost < opt {
			t.Fatalf("n=%d: cost %d below optimal %d — impossible", n, cost, opt)
		}
	}
}

func TestApprox125RatioAgainstExact(t *testing.T) {
	// Effective-cost ratio π_approx/π_opt <= 1.25 (both >= m; approx <=
	// m + (m-1)/4).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		g := randomConnectedBip(rng)
		_, ca, err := SolveAndVerify(context.Background(), Approx125{}, g)
		if err != nil {
			t.Fatal(err)
		}
		_, ce, err := SolveAndVerify(context.Background(), Exact{}, g)
		if err != nil {
			t.Fatal(err)
		}
		if 4*(ca-1) > 5*(ce-1) { // π_a <= 1.25 π_e using π = π̂-1 for connected
			t.Fatalf("trial %d: approx π=%d vs exact π=%d exceeds 1.25 ratio", trial, ca-1, ce-1)
		}
	}
}

func TestApprox125LargeGraphs(t *testing.T) {
	// The construction must hold far beyond exact-solver reach.
	rng := rand.New(rand.NewSource(8))
	sizes := [][3]int{{20, 20, 60}, {40, 30, 200}, {25, 25, 600}}
	for _, sz := range sizes {
		g := graph.RandomConnectedBipartite(rng, sz[0], sz[1], sz[2]).Graph()
		_, cost, err := SolveAndVerify(context.Background(), Approx125{}, g)
		if err != nil {
			t.Fatalf("size %v: %v", sz, err)
		}
		if bound := ApproxCostBound(g); cost > bound {
			t.Fatalf("size %v: cost %d exceeds bound %d", sz, cost, bound)
		}
	}
}

func TestApprox125OnFamilies(t *testing.T) {
	for _, name := range family.All() {
		for _, size := range []int{2, 5, 9} {
			b, err := family.Build(name, size)
			if err != nil {
				t.Fatal(err)
			}
			g, _ := b.Graph().WithoutIsolated()
			_, cost, err := SolveAndVerify(context.Background(), Approx125{}, g)
			if err != nil {
				t.Fatalf("%s(%d): %v", name, size, err)
			}
			if bound := ApproxCostBound(g); cost > bound {
				t.Fatalf("%s(%d): cost %d exceeds bound %d", name, size, cost, bound)
			}
		}
	}
}

func TestGreedySolversProduceValidSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		g := randomConnectedBip(rng)
		for _, s := range []Solver{Greedy{}, GreedyImproved{}, PathCover{}, CycleCover{}, Naive{}} {
			if _, _, err := SolveAndVerify(context.Background(), s, g); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

func TestCycleCoverNearOptimal(t *testing.T) {
	// The §4 remark cites a 7/6 approximation; require the cycle-cover
	// solver's effective cost within 7/6 of optimal plus one move of
	// slack on these exact-solvable instances.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		g := randomConnectedBip(rng)
		_, opt, err := SolveAndVerify(context.Background(), Exact{}, g)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := SolveAndVerify(context.Background(), CycleCover{}, g)
		if err != nil {
			t.Fatal(err)
		}
		if 6*(got-1) > 7*(opt-1)+6 {
			t.Fatalf("trial %d: cycle-cover π=%d vs optimal %d breaks 7/6+1", trial, got-1, opt-1)
		}
	}
}

func TestOptimalCostInvariantUnderRelabeling(t *testing.T) {
	// π̂ is a graph invariant: permuting vertex labels must not change
	// the exact solver's answer.
	rng := rand.New(rand.NewSource(29))
	cfg := &quick.Config{MaxCount: 20, Rand: rng}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnectedBip(r)
		perm := r.Perm(g.N())
		var hEdges []graph.Edge
		for _, e := range g.Edges() {
			hEdges = append(hEdges, graph.Edge{U: perm[e.U], V: perm[e.V]})
		}
		h := graph.New(g.N(), hEdges)
		c1, err1 := OptimalCost(g)
		c2, err2 := OptimalCost(h)
		return err1 == nil && err2 == nil && c1 == c2
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestOptimalCostInvariantUnderEdgeOrder(t *testing.T) {
	// Inserting the same edges in a different order must not change π̂.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		g := randomConnectedBip(rng)
		edges := g.Edges()
		var hEdges []graph.Edge
		for _, k := range rng.Perm(len(edges)) {
			hEdges = append(hEdges, graph.Edge{U: edges[k].U, V: edges[k].V})
		}
		h := graph.New(g.N(), hEdges)
		c1, err1 := OptimalCost(g)
		c2, err2 := OptimalCost(h)
		if err1 != nil || err2 != nil || c1 != c2 {
			t.Fatalf("trial %d: %d vs %d (%v %v)", trial, c1, c2, err1, err2)
		}
	}
}

func TestHasPerfectScheme(t *testing.T) {
	ok, err := hasPerfectScheme(graph.CompleteBipartite(3, 3).Graph())
	if err != nil || !ok {
		t.Fatalf("K_{3,3} pebbles perfectly: ok=%v err=%v", ok, err)
	}
	ok, err = hasPerfectScheme(family.Spider(3).Graph())
	if err != nil || ok {
		t.Fatalf("spider-3 cannot pebble perfectly: ok=%v err=%v", ok, err)
	}
}

func TestExactRejectsOversizedComponent(t *testing.T) {
	g := graph.RandomConnectedBipartite(rand.New(rand.NewSource(11)), 10, 10, 40).Graph()
	if _, err := (Exact{}).Solve(context.Background(), g); err == nil {
		t.Fatal("oversized component must be rejected")
	}
}

func TestSolverlessEmptyGraph(t *testing.T) {
	g := graph.New(5, nil)
	for _, s := range All() {
		scheme, err := s.Solve(context.Background(), g)
		if err != nil {
			t.Fatalf("%s on edgeless graph: %v", s.Name(), err)
		}
		if len(scheme) != 0 {
			t.Fatalf("%s produced nonempty scheme for edgeless graph", s.Name())
		}
	}
}

func TestOptimalEffectiveCostConnected(t *testing.T) {
	g := graph.PathBipartite(5).Graph()
	eff, err := OptimalEffectiveCost(g)
	if err != nil {
		t.Fatal(err)
	}
	if eff != 5 {
		t.Fatalf("π(P6)=%d want m=5", eff)
	}
}
