package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"joinpebble/internal/core"
	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
	"joinpebble/internal/reduction"
	"joinpebble/internal/solver"
	"joinpebble/internal/tsp"
)

// E10Hardness contrasts solver scaling: the exact solver's time explodes
// on the hard family while the equijoin pebbler stays linear — the
// computational shadow of Theorem 4.2's NP-completeness next to Theorem
// 4.1's linear time.
func E10Hardness() (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "exponential vs linear solving",
		Claim:  "PEBBLE(D) is NP-complete in general but linear for equijoin graphs (Thm 4.2 vs Thm 4.1)",
		Header: []string{"family", "m", "solver", "time", "π̂"},
	}
	for _, n := range []int{5, 7, 9} {
		g := family.Spider(n).Graph()
		start := obs.Now()
		cost, err := solver.OptimalCost(g)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("spider-%d", n), g.M(), "exact (Held-Karp)", obs.Since(start).Round(time.Microsecond).String(), cost)
	}
	for _, k := range []int{40, 400, 1200} {
		g := graph.CompleteBipartite(k, k/4).Graph()
		start := obs.Now()
		_, cost, err := solver.SolveAndVerify(context.Background(), solver.Equijoin{}, g)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("K(%d,%d)", k, k/4), g.M(), "equijoin (linear)", obs.Since(start).Round(time.Microsecond).String(), cost)
	}
	t.Notes = append(t.Notes,
		"exact time grows exponentially in m (Held–Karp over line-graph subsets); the equijoin solver handles 100x more edges in comparable time")
	return t, nil
}

// E11Diamond verifies the Theorem 4.3 L-reduction empirically: alpha
// stays below the gadget size and beta = 1 holds over sampled tours.
func E11Diamond() (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "diamond L-reduction TSP-4(1,2) to TSP-3(1,2)",
		Claim:  "f,g form an L-reduction: OPT(H) <= alpha*OPT(G), quality preserved with beta=1 (Thm 4.3, Fig 2)",
		Header: []string{"n(G)", "m(G)", "n(H)", "OPT(G)", "OPT(H)", "alpha", "beta violation", "samples"},
	}
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 5; trial++ {
		g := degree4Instance(rng, 6+trial%3)
		r, err := reduction.NewDegree4To3(g)
		if err != nil {
			return nil, err
		}
		if r.H.N() > tsp.MaxExactCities {
			continue
		}
		var tours []tsp.Tour
		for k := 0; k < 6; k++ {
			tours = append(tours, tsp.Tour(rng.Perm(r.H.N())))
		}
		check, err := reduction.CheckDegree4To3(r, tours)
		if err != nil {
			return nil, err
		}
		t.AddRow(g.N(), g.M(), r.H.N(), check.OptA, check.OptB,
			check.Alpha, check.MaxBetaViolation, check.Samples)
	}
	t.Notes = append(t.Notes,
		"gadget: 10-node verified diamond (Fig 2's exact drawing is not in the text); alpha bound 10, paper's gadget gives 11")
	return t, nil
}

// degree4Instance returns a connected max-degree-4 graph guaranteed to
// contain a degree-4 vertex, so the reduction actually deploys a gadget.
func degree4Instance(rng *rand.Rand, n int) *graph.Graph {
	for {
		g := graph.New(n)
		// Vertex 0 starts as the center of a 4-star.
		for v := 1; v <= 4; v++ {
			g.AddEdge(0, v)
		}
		// Keep the other vertices below degree 4 so exactly one gadget is
		// deployed and H stays inside the exact solver's reach.
		for tries := 0; tries < 40 && g.M() < n+2; tries++ {
			u, v := 1+rng.Intn(n-1), 1+rng.Intn(n-1)
			if u != v && !g.HasEdge(u, v) && g.Degree(u) < 3 && g.Degree(v) < 3 {
				g.AddEdge(u, v)
			}
		}
		if g.Connected() && g.Degree(0) == 4 {
			return g
		}
	}
}

// E12Incidence verifies the Theorem 4.4 L-reduction: the incidence-graph
// pebbling optimum equals 2m + J* + 1 predicted from the TSP optimum.
func E12Incidence() (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "incidence L-reduction TSP-3(1,2) to PEBBLE",
		Claim:  "π̂(B) = 2m + J* + 1; alpha=3, beta=1 (Thm 4.4)",
		Header: []string{"n(G)", "m(G)", "OPT tour", "π̂(B)", "predicted", "alpha", "beta violation"},
	}
	rng := rand.New(rand.NewSource(222))
	for trial := 0; trial < 5; trial++ {
		n := 5 + trial%2
		maxM := 3 * n / 2
		m := n - 1 + rng.Intn(maxM-(n-1)+1)
		g := graph.RandomConnectedGraph(rng, n, m, 3)
		if 2*g.M() > tsp.MaxExactCities {
			continue
		}
		r, err := reduction.NewTSPToPebble(g)
		if err != nil {
			return nil, err
		}
		var extras []core.Scheme
		for k := 0; k < 4; k++ {
			s, err := r.ForwardScheme(tsp.Tour(rng.Perm(g.N())))
			if err != nil {
				return nil, err
			}
			extras = append(extras, s)
		}
		check, err := reduction.CheckIncidence(r, extras)
		if err != nil {
			return nil, err
		}
		t.AddRow(g.N(), g.M(), check.OptA, check.OptB,
			r.PebbleCostFromTourCost(check.OptA), check.Alpha, check.MaxBetaViolation)
	}
	return t, nil
}

// E13Gadget reports the exhaustively verified diamond-gadget properties
// of Figure 2.
func E13Gadget() (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "diamond gadget properties",
		Claim:  "Ham paths exist between all corner pairs; no Ham path ends at a rim vertex (Fig 2)",
		Header: []string{"property", "value"},
	}
	g := reduction.NewGadget()
	paths := graph.AllHamiltonianPaths(g)
	pairs := map[[2]int]bool{}
	rimEnd, hubEnd := 0, 0
	for _, p := range paths {
		a, b := p[0], p[len(p)-1]
		if a > b {
			a, b = b, a
		}
		pairs[[2]int{a, b}] = true
		for _, v := range []int{a, b} {
			switch {
			case v >= 4 && v <= 7:
				rimEnd++
			case v >= 8:
				hubEnd++
			}
		}
	}
	cornerPairs := 0
	for p := range pairs {
		if p[0] < 4 && p[1] < 4 {
			cornerPairs++
		}
	}
	t.AddRow("vertices", reduction.GadgetSize)
	t.AddRow("max degree", g.MaxDegree())
	t.AddRow("corner degree", g.Degree(reduction.CornerA))
	t.AddRow("Hamiltonian paths (directed)", len(paths))
	t.AddRow("corner endpoint pairs (want 6)", cornerPairs)
	t.AddRow("rim-vertex endpoints (want 0)", rimEnd)
	t.AddRow("hub-vertex endpoints (documented deviation)", hubEnd)
	return t, nil
}

// E14Ratios compares every solver's effective cost to the exact optimum
// over random instances — the approximability landscape of §4 (1.25 by
// Lemma 3.1, 7/6 via Papadimitriou–Yannakakis, no PTAS by Thm 4.4).
func E14Ratios() (*Table, error) {
	t := &Table{
		ID:     "E14",
		Title:  "solver approximation ratios",
		Claim:  "approx-1.25 stays within 1.25 of optimal; no solver beats exact (§4)",
		Header: []string{"solver", "mean ratio", "max ratio", "perfect found", "instances"},
	}
	rng := rand.New(rand.NewSource(333))
	type stat struct {
		sum     float64
		max     float64
		perfect int
		count   int
	}
	statsFor := map[string]*stat{}
	lineup := []solver.Solver{
		solver.Naive{}, solver.Greedy{}, solver.GreedyImproved{},
		solver.PathCover{}, solver.CycleCover{}, solver.Approx125{},
		solver.ExactBnB{},
	}
	for _, s := range lineup {
		statsFor[s.Name()] = &stat{}
	}
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		nl, nr := 3+rng.Intn(2), 3+rng.Intn(2)
		minM := nl + nr - 1
		m := minM + rng.Intn(nl*nr-minM+1)
		if m > 14 {
			m = 14
		}
		g := graph.RandomConnectedBipartite(rng, nl, nr, m).Graph()
		opt, err := solver.OptimalCost(g)
		if err != nil {
			return nil, err
		}
		optEff := opt - 1
		for _, s := range lineup {
			_, cost, err := solver.SolveAndVerify(context.Background(), s, g)
			if err != nil {
				return nil, err
			}
			eff := cost - 1
			ratio := float64(eff) / float64(optEff)
			st := statsFor[s.Name()]
			st.sum += ratio
			if ratio > st.max {
				st.max = ratio
			}
			if eff == g.M() {
				st.perfect++
			}
			st.count++
		}
	}
	for _, s := range lineup {
		st := statsFor[s.Name()]
		t.AddRow(s.Name(), st.sum/float64(st.count), st.max, st.perfect, st.count)
	}
	return t, nil
}
