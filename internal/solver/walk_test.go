package solver

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"joinpebble/internal/core"
	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/tsp"
)

// hamiltonianLineGraphDecision decides Proposition 2.1's special case
// π(G) = m by a backtracking search of L(G) for a Hamiltonian path per
// component — the K = m instance of PEBBLE(D).
func hamiltonianLineGraphDecision(g *graph.Graph) (bool, error) {
	for _, comp := range g.Components() {
		if len(comp) < 2 {
			continue
		}
		cg, _ := inducedSubgraph(g, comp)
		if cg.M() > tsp.MaxExactCities {
			return false, fmt.Errorf("%w: component with %d edges exceeds decision budget", ErrBudgetExceeded, cg.M())
		}
		if _, ok := graph.HamiltonianPath(graph.LineGraph(cg)); !ok {
			return false, nil
		}
	}
	return true, nil
}

// hasPerfectScheme decides Definition 2.3 exactly, whether π(G) = m: by
// Proposition 2.1, whether tsp.Exact finds a jump-free tour of every
// component's line graph. It calls the search directly, so the exact
// rung's walk short cut plays no part in its answer.
func hasPerfectScheme(g *graph.Graph) (bool, error) {
	for _, comp := range g.Components() {
		if len(comp) < 2 {
			continue
		}
		cg, _ := inducedSubgraph(g, comp)
		_, cost, err := tsp.Exact(context.Background(), tsp.NewInstance(graph.LineGraph(cg)))
		if err != nil {
			return false, err
		}
		if cost != cg.M()-1 {
			return false, nil
		}
	}
	return true, nil
}

// constructionJumps returns the jumps of Theorem 3.1's construction
// alone on cg, connected: the rung's answer before the walk.
func constructionJumps(t testing.TB, cg *graph.Graph) int {
	t.Helper()
	order, _, err := pathPartition(new(spanTree), whole(cg), false)
	if err != nil {
		t.Fatal(err)
	}
	return core.EdgeOrderCost(cg, order) - 1 - cg.M()
}

// walkReport is what checkWalk learns about one component, in effective
// cost π = m + J.
type walkReport struct {
	m, rung, walk, construction int
	certified, perfect          bool
}

// checkWalk solves cg, connected with at least one edge, with the rung,
// the walk alone and the construction alone. The rung's verified cost
// must be at most the construction's and Theorem 3.1's m + ⌊(m−1)/4⌋,
// and the walk may not beat its own lower bound. A certified walk must
// be what the rung returns.
func checkWalk(t testing.TB, name string, cg *graph.Graph) walkReport {
	t.Helper()
	m := cg.M()
	_, cost, err := SolveAndVerify(context.Background(), Approx125{}, cg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var w lineWalk
	bound := w.init(whole(cg))
	jumps := w.run()
	r := walkReport{
		m: m, rung: cost - 1, walk: m + jumps, construction: m + constructionJumps(t, cg),
		certified: jumps == bound, perfect: jumps == 0,
	}
	switch {
	case jumps < bound:
		t.Fatalf("%s: walk has %d jumps, below its lower bound %d", name, jumps, bound)
	case r.rung > m+(m-1)/4:
		t.Fatalf("%s: π=%d exceeds m+⌊(m−1)/4⌋ = %d", name, r.rung, m+(m-1)/4)
	case r.rung > r.construction:
		t.Fatalf("%s: π=%d exceeds the construction's %d", name, r.rung, r.construction)
	case r.certified && r.rung != r.walk:
		t.Fatalf("%s: walk certified at π=%d, rung returned %d", name, r.walk, r.rung)
	}
	return r
}

// forEachComponent calls fn on every edge-bearing component of g.
func forEachComponent(g *graph.Graph, fn func(ci int, cg *graph.Graph)) {
	for ci, comp := range g.Components() {
		if cg, _ := inducedSubgraph(g, comp); cg.M() > 0 {
			fn(ci, cg)
		}
	}
}

// TestWalkDifferential pins the rung against Theorem 3.1's bound and the
// construction on every family at sizes 1–60 and the approx oracle
// corpus, and against the optimum on spiders (Theorem 3.3's closed form)
// and on random connected bipartite graphs with m <= 16 (tsp.Exact).
// Every perfect walk is checked against both Proposition 2.1 oracles.
func TestWalkDifferential(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine differential test; too slow under -race, so CI runs it without")
	}
	t.Run("families", func(t *testing.T) {
		t.Parallel()
		for _, name := range family.All() {
			for size := 1; size <= 60; size++ {
				b, err := family.Build(name, size)
				if err != nil {
					t.Fatal(err)
				}
				g := b.Graph()
				forEachComponent(g, func(ci int, cg *graph.Graph) {
					r := checkWalk(t, fmt.Sprintf("%s(%d) component %d", name, size, ci), cg)
					if name == family.NameSpider && size <= 9 && r.rung != family.SpiderOptimalEffectiveCost(size) {
						t.Fatalf("spider(%d): π=%d, optimum %d", size, r.rung, family.SpiderOptimalEffectiveCost(size))
					}
				})
			}
		}
	})
	t.Run("oracle-corpus", func(t *testing.T) {
		t.Parallel()
		for n := 1; n <= 200; n++ {
			checkWalk(t, fmt.Sprintf("spider(%d)", n), family.Spider(n).Graph())
		}
		approxOracleRandom(func(name string, g *graph.Graph) {
			forEachComponent(g, func(ci int, cg *graph.Graph) {
				checkWalk(t, fmt.Sprintf("%s component %d", name, ci), cg)
			})
		})
	})
	t.Run("optimum", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewSource(53))
		var opt, rung, walk, cons, certified, perfectOpt, perfectWalk, perfectCons int
		var ratioRung, ratioWalk, ratioCons float64
		const graphs = 1200
		for i := 0; i < graphs; i++ {
			g := randomSmallBip(rng, 16)
			name := fmt.Sprintf("bipartite#%d", i)
			r := checkWalk(t, name, g)
			_, cost, err := tsp.Exact(context.Background(), tsp.NewInstance(graph.LineGraph(g)))
			if err != nil {
				t.Fatal(err)
			}
			o := cost + 1 // a tour of m cities costs m−1+J, and π = m+J
			if r.rung < o {
				t.Fatalf("%s: π=%d beats the optimum %d", name, r.rung, o)
			}
			if r.certified {
				certified++
				if r.walk != o {
					t.Fatalf("%s: certified walk π=%d, optimum %d", name, r.walk, o)
				}
			}
			if r.perfect {
				ham, err := hamiltonianLineGraphDecision(g)
				if err != nil {
					t.Fatal(err)
				}
				perfect, err := hasPerfectScheme(g)
				if err != nil {
					t.Fatal(err)
				}
				if !ham || !perfect {
					t.Fatalf("%s: perfect walk, but Prop 2.1 oracles say %v (backtracking), %v (exact)", name, ham, perfect)
				}
			}
			opt, rung, walk, cons = opt+o, rung+r.rung, walk+r.walk, cons+r.construction
			ratioRung += float64(r.rung) / float64(o)
			ratioWalk += float64(r.walk) / float64(o)
			ratioCons += float64(r.construction) / float64(o)
			if o == g.M() {
				perfectOpt++
				if r.perfect {
					perfectWalk++
				}
				if r.construction == g.M() {
					perfectCons++
				}
			}
		}
		t.Logf("%d graphs, m <= 16: mean π/optimum construction %.3f, walk %.3f, rung %.3f; summed construction %.3f, walk %.3f, rung %.3f",
			graphs, ratioCons/graphs, ratioWalk/graphs, ratioRung/graphs,
			float64(cons)/float64(opt), float64(walk)/float64(opt), float64(rung)/float64(opt))
		t.Logf("optimum perfect on %d graphs: walk perfect on %d, construction on %d; walk certified on %d of %d",
			perfectOpt, perfectWalk, perfectCons, certified, graphs)
	})
}

// randomSmallBip returns a random connected bipartite graph with at most
// maxM edges and sides of 1–9 vertices.
func randomSmallBip(rng *rand.Rand, maxM int) *graph.Graph {
	for {
		nl, nr := 1+rng.Intn(9), 1+rng.Intn(9)
		lo, hi := nl+nr-1, min(nl*nr, maxM)
		if lo <= hi {
			return graph.RandomConnectedBipartite(rng, nl, nr, lo+rng.Intn(hi-lo+1)).Graph()
		}
	}
}

// TestWalkBoundLeafCounting: on Spider(n), Theorem 3.3's G_n, L(G_n) is
// K_n plus n pendant leaves, and the n leaves of line-graph degree 1
// give 2J >= n − 2. The walk meets the bound there, one jump per pair
// of legs.
func TestWalkBoundLeafCounting(t *testing.T) {
	for n := 1; n <= 12; n++ {
		var w lineWalk
		bound := w.init(whole(family.Spider(n).Graph()))
		if want := max(0, (n-2+1)/2); bound != want {
			t.Fatalf("spider(%d): jump lower bound %d, want %d", n, bound, want)
		}
		if jumps := w.run(); jumps != bound {
			t.Fatalf("spider(%d): walk has %d jumps, bound %d", n, jumps, bound)
		}
	}
}

// TestWalkAllocations: the walk takes one allocation per solve, its
// arena, whatever the size and number of the components it walks.
func TestWalkAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	multi := multiComponentGraph(rand.New(rand.NewSource(3)), 6)
	for _, g := range []*graph.Graph{family.Spider(500).Graph(), graph.CompleteBipartite(30, 40).Graph(), multi} {
		comps := inPlaceComponents(g)
		allocs := testing.AllocsPerRun(5, func() {
			var w lineWalk
			for _, c := range comps {
				w.init(c)
				w.run()
			}
		})
		if allocs != 1 {
			t.Fatalf("m=%d over %d components: walk made %v allocations, want 1", g.M(), len(comps), allocs)
		}
	}
}

// FuzzApproxWalk decodes a connected bipartite graph of at most 16 edges
// and requires the rung's cost to lie between tsp.Exact's optimum and
// both the construction's cost and Theorem 3.1's bound, and a certified
// walk to be optimal. The first two bytes pick the side sizes (1–8
// each); each following pair of bytes is an edge, and the graph is the
// component of the first edge.
func FuzzApproxWalk(f *testing.F) {
	f.Add([]byte{3, 3, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2})
	f.Add([]byte{7, 7, 0, 0, 0, 1, 0, 2, 0, 3, 1, 0, 2, 1, 3, 2, 4, 3})
	f.Add([]byte{1, 5, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nl, nr := 1+int(data[0])%8, 1+int(data[1])%8
		var edges []graph.Edge
		for i := 2; i+1 < len(data) && len(edges) < 16; i += 2 {
			edges = append(edges, graph.Edge{U: int(data[i]) % nl, V: int(data[i+1]) % nr})
		}
		g := graph.NewBipartite(nl, nr, edges).Graph()
		var keep []int
		for _, comp := range g.Components() {
			if slices.Contains(comp, g.EdgeAt(0).U) {
				keep = comp
			}
		}
		cg, _ := inducedSubgraph(g, keep)
		r := checkWalk(t, fmt.Sprint(cg), cg)
		_, cost, err := tsp.Exact(context.Background(), tsp.NewInstance(graph.LineGraph(cg)))
		if err != nil {
			t.Fatal(err)
		}
		if o := cost + 1; r.rung < o || (r.certified && r.walk != o) {
			t.Fatalf("%v: rung π=%d, walk π=%d (certified %v), optimum %d", cg, r.rung, r.walk, r.certified, o)
		}
	})
}
