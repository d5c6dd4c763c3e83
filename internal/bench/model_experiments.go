package bench

import (
	"context"
	"fmt"
	"math/rand"

	"joinpebble/internal/core"
	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/solver"
	"joinpebble/internal/tsp"
)

// E1Bounds verifies Lemma 2.1 / Lemma 2.3 / Corollary 2.1: for every
// instance, m + β₀ <= π̂(G) <= 2m, i.e. m <= π(G) <= 2m−1 per component.
func E1Bounds() (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "pebbling cost bounds",
		Claim:  "m + β₀ <= π̂(G) <= 2m (Lemma 2.1, Lemma 2.3, Cor 2.1)",
		Header: []string{"graph", "m", "β₀", "π̂ (exact)", "π", "lower", "upper", "within"},
	}
	rng := rand.New(rand.NewSource(101))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"matching-6", graph.Matching(6).Graph()},
		{"path-8", graph.PathBipartite(8).Graph()},
		{"cycle-8", graph.CycleBipartite(8).Graph()},
		{"K(3,4)", graph.CompleteBipartite(3, 4).Graph()},
		{"spider-5", family.Spider(5).Graph()},
		{"grid-3x3", graph.GridBipartite(3, 3).Graph()},
	}
	for i := 0; i < 4; i++ {
		g := graph.RandomConnectedBipartite(rng, 3, 4, 8+i).Graph()
		cases = append(cases, struct {
			name string
			g    *graph.Graph
		}{fmt.Sprintf("random-%d", i), g})
	}
	for _, c := range cases {
		cost, err := solver.OptimalCost(c.g)
		if err != nil {
			return nil, err
		}
		lo, hi := core.LowerBound(c.g), core.UpperBound(c.g)
		t.AddRow(c.name, c.g.M(), core.Betti0(c.g), cost, cost-core.Betti0(c.g), lo, hi,
			cost >= lo && cost <= hi)
	}
	return t, nil
}

// E2Additivity verifies Lemma 2.2 computationally: π̂(G ⊔ H) equals
// π̂(G) + π̂(H) on exact instances.
func E2Additivity() (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "additivity over disjoint union",
		Claim:  "π̂(G ⊔ H) = π̂(G) + π̂(H) (Lemma 2.2)",
		Header: []string{"G", "H", "π̂(G)", "π̂(H)", "π̂(G⊔H)", "additive"},
	}
	rng := rand.New(rand.NewSource(202))
	parts := []struct {
		name string
		g    *graph.Graph
	}{
		{"K(2,3)", graph.CompleteBipartite(2, 3).Graph()},
		{"spider-3", family.Spider(3).Graph()},
		{"path-5", graph.PathBipartite(5).Graph()},
		{"random", graph.RandomConnectedBipartite(rng, 3, 3, 7).Graph()},
	}
	for i := 0; i < len(parts); i++ {
		for j := i + 1; j < len(parts); j++ {
			cg, err := solver.OptimalCost(parts[i].g)
			if err != nil {
				return nil, err
			}
			ch, err := solver.OptimalCost(parts[j].g)
			if err != nil {
				return nil, err
			}
			u := graph.DisjointUnion(parts[i].g, parts[j].g)
			cu, err := solver.OptimalCost(u)
			if err != nil {
				return nil, err
			}
			t.AddRow(parts[i].name, parts[j].name, cg, ch, cu, cu == cg+ch)
		}
	}
	return t, nil
}

// E3Matching verifies Lemma 2.4: a perfect matching of m edges has
// π̂ = 2m and π = m, at sizes far beyond the exact solver (the formula is
// checked exactly where the solver reaches and by the matching pebbler's
// verified cost beyond).
func E3Matching() (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "matchings cost 2m",
		Claim:  "π̂(matching_m) = 2m, π = m (Lemma 2.4)",
		Header: []string{"m", "π̂ (verified)", "2m", "π", "exact agrees"},
	}
	for _, m := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		g := graph.Matching(m).Graph()
		scheme, cost, err := solver.SolveAndVerify(context.Background(), solver.MatchingSolver{}, g)
		if err != nil {
			return nil, err
		}
		exactNote := "n/a (too large)"
		if m <= 8 {
			ec, err := solver.OptimalCost(g)
			if err != nil {
				return nil, err
			}
			exactNote = fmt.Sprint(ec == cost)
		}
		t.AddRow(m, cost, 2*m, scheme.EffectiveCost(g), exactNote)
	}
	return t, nil
}

// E4LineGraph verifies Propositions 2.1 and 2.2: π(G) = m iff L(G) has a
// Hamiltonian path, and the optimal TSP tour of L(G) costs π(G) − 1.
func E4LineGraph() (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "perfect pebbling = Hamiltonian line graph",
		Claim:  "π(G)=m ⇔ L(G) has a Ham path; TSP(L(G)) = π(G)−1 (Prop 2.1/2.2)",
		Header: []string{"graph", "m", "π", "perfect", "L(G) Ham path", "TSP(L(G))", "= π−1"},
	}
	rng := rand.New(rand.NewSource(404))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"K(3,3)", graph.CompleteBipartite(3, 3).Graph()},
		{"path-6", graph.PathBipartite(6).Graph()},
		{"spider-3", family.Spider(3).Graph()},
		{"spider-4", family.Spider(4).Graph()},
		{"cycle-6", graph.CycleBipartite(6).Graph()},
	}
	for i := 0; i < 3; i++ {
		g := graph.RandomConnectedBipartite(rng, 3, 3, 7+i).Graph()
		cases = append(cases, struct {
			name string
			g    *graph.Graph
		}{fmt.Sprintf("random-%d", i), g})
	}
	for _, c := range cases {
		eff, err := solver.OptimalEffectiveCost(c.g)
		if err != nil {
			return nil, err
		}
		lg := graph.LineGraph(c.g)
		_, ham := graph.HamiltonianPath(lg)
		_, tspCost, err := tsp.Exact(tsp.NewInstance(lg))
		if err != nil {
			return nil, err
		}
		perfect := eff == c.g.M()
		if perfect != ham {
			return nil, fmt.Errorf("E4: Prop 2.1 violated on %s", c.name)
		}
		t.AddRow(c.name, c.g.M(), eff, perfect, ham, tspCost, tspCost == eff-1)
	}
	return t, nil
}
