package bench

import (
	"context"
	"fmt"
	"math/rand"

	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/obs"
	"joinpebble/internal/solver"
	"joinpebble/internal/workload"
)

// E5Approx verifies Theorem 3.1 / Lemma 3.1: the DFS-partition scheme
// stays within m + floor((m−1)/4) per component, compared against exact
// optima where feasible.
func E5Approx() (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "1.25 approximation",
		Claim:  "π(approx) <= m + floor((m−1)/4) (Thm 3.1, Lemma 3.1)",
		Header: []string{"graph", "m", "approx π̂", "bound", "exact π̂", "ratio", "within bound"},
	}
	rng := rand.New(rand.NewSource(505))
	type c struct {
		name string
		g    *graph.Graph
	}
	var cases []c
	for i, sz := range [][3]int{{3, 3, 8}, {3, 4, 10}, {4, 4, 13}, {4, 4, 15}} {
		g := graph.RandomConnectedBipartite(rng, sz[0], sz[1], sz[2]).Graph()
		cases = append(cases, c{fmt.Sprintf("random-%d (m=%d)", i, g.M()), g})
	}
	cases = append(cases,
		c{"spider-7", family.Spider(7).Graph()},
		c{"grid-4x4", graph.GridBipartite(4, 4).Graph()},
		c{"random-large", graph.RandomConnectedBipartite(rng, 20, 20, 120).Graph()},
	)
	for _, cs := range cases {
		_, approx, err := solver.SolveAndVerify(context.Background(), solver.Approx125{}, cs.g)
		if err != nil {
			return nil, err
		}
		bound := solver.ApproxCostBound(cs.g)
		exact := "n/a"
		ratio := "n/a"
		if cs.g.M() <= 16 {
			ec, err := solver.OptimalCost(cs.g)
			if err != nil {
				return nil, err
			}
			exact = fmt.Sprint(ec)
			ratio = fmt.Sprintf("%.3f", float64(approx-1)/float64(ec-1))
		}
		t.AddRow(cs.name, cs.g.M(), approx, bound, exact, ratio, approx <= bound)
	}
	return t, nil
}

// E6Equijoin verifies Theorems 3.2 and 4.1: equijoin join graphs pebble
// perfectly, found in time linear in m (wall-clock per edge reported
// across three orders of magnitude).
func E6Equijoin() (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "equijoins pebble perfectly in linear time",
		Claim:  "π(equijoin graph) = m, found in O(m) (Thm 3.2, Thm 4.1)",
		Header: []string{"|R|=|S|", "domain", "skew", "m", "π̂", "m+β₀", "perfect", "ns/edge"},
	}
	for _, sz := range []int{100, 1000, 5000} {
		for _, skew := range []float64{0, 1.2} {
			w := workload.Equijoin{LeftSize: sz, RightSize: sz, Domain: int64(sz / 10), Skew: skew}
			l, r := w.Generate(66)
			b := join.EquiGraph(l.Ints(), r.Ints())
			g, _ := b.Graph().WithoutIsolated()
			if g.M() == 0 {
				continue
			}
			start := obs.Now()
			scheme, cost, err := solver.SolveAndVerify(context.Background(), solver.Equijoin{}, g)
			if err != nil {
				return nil, err
			}
			elapsed := obs.Since(start)
			perfect := scheme.EffectiveCost(g) == g.M()
			t.AddRow(sz, sz/10, skew, g.M(), cost, g.M()+schemeBetti(g), perfect,
				elapsed.Nanoseconds()/int64(g.M()))
		}
	}
	t.Notes = append(t.Notes,
		"ns/edge staying flat across m spanning 100x demonstrates the linear-time claim; the solve includes scheme verification")
	return t, nil
}

func schemeBetti(g *graph.Graph) int {
	// local alias to keep call sites tabular
	n := 0
	for _, comp := range g.Components() {
		if len(comp) > 1 {
			n++
		}
	}
	return n
}

// E7HardFamily verifies Theorem 3.3 / Figure 1: the spider family G_n
// reaches π = 1.25m − 1 (exactly at even n), with exact solver
// confirmation for small n and the jump lower bound at scale.
func E7HardFamily() (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "the hard family G_n",
		Claim:  "π(G_n) = 1.25m − 1 for the Fig 1a family (Thm 3.3)",
		Header: []string{"n", "m", "π closed form", "exact π", "1.25m−1", "approx π̂−1", "J lower bound"},
	}
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 16, 32, 64} {
		b := family.Spider(n)
		g := b.Graph()
		m := g.M()
		closed := family.SpiderOptimalEffectiveCost(n)
		exact := "n/a"
		if n <= 9 {
			ec, err := solver.OptimalEffectiveCost(g)
			if err != nil {
				return nil, err
			}
			if ec != closed {
				return nil, fmt.Errorf("E7: closed form %d != exact %d at n=%d", closed, ec, n)
			}
			exact = fmt.Sprint(ec)
		}
		_, approx, err := solver.SolveAndVerify(context.Background(), solver.Approx125{}, g)
		if err != nil {
			return nil, err
		}
		paperBound := fmt.Sprintf("%.2f", 1.25*float64(m)-1)
		t.AddRow(n, m, closed, exact, paperBound, approx-1, (m/2-2+1)/2)
	}
	t.Notes = append(t.Notes,
		"closed form = m + floor((n−1)/2); equals 1.25m−1 exactly when n is even (the theorem is asymptotic)")
	return t, nil
}
