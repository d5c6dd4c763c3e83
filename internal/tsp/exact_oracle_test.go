package tsp

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"joinpebble/internal/family"
	"joinpebble/internal/graph"
)

// checkMatchesOracle fails t unless Exact returns Held–Karp's tour and
// cost on in.
func checkMatchesOracle(t *testing.T, label string, in *Instance) {
	t.Helper()
	tour, cost, err := Exact(context.Background(), in)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wantTour, wantCost := heldKarp(in)
	if cost != wantCost || !slices.Equal(tour, wantTour) {
		t.Fatalf("%s: Exact = %v cost %d, Held–Karp = %v cost %d on %v", label, tour, cost, wantTour, wantCost, in.Good)
	}
	if err := in.Validate(tour); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got := in.Cost(tour); got != cost {
		t.Fatalf("%s: reported cost %d, tour costs %d", label, cost, got)
	}
}

// randomGood returns a G(n, p) good graph for a random p, so small p
// gives graphs with many components and isolated cities.
func randomGood(rng *rand.Rand, n int) *graph.Graph {
	p := rng.Float64()
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	return graph.New(n, edges)
}

// TestHeldKarpFixed pins the oracle, and Exact with it, on instances
// whose optimal tour is worked out by hand: the lowest optimal end city
// comes last, and each step back takes the lowest predecessor that
// keeps the path optimal.
func TestHeldKarpFixed(t *testing.T) {
	matching := NewInstance(graph.New(6, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}}))
	for _, tc := range []struct {
		name string
		in   *Instance
		tour Tour
		cost int
	}{
		{"empty", NewInstance(graph.New(0, nil)), Tour{}, 0},
		{"one city", NewInstance(graph.New(1, nil)), Tour{0}, 0},
		{"two apart", NewInstance(graph.New(2, nil)), Tour{1, 0}, 2},
		{"three apart", NewInstance(graph.New(3, nil)), Tour{2, 1, 0}, 4},
		{"path", pathInstance(4), Tour{3, 2, 1, 0}, 3},
		{"matching", matching, Tour{5, 4, 3, 2, 1, 0}, 7},
	} {
		tour, cost := heldKarp(tc.in)
		if cost != tc.cost || !slices.Equal(tour, tc.tour) {
			t.Errorf("%s: Held–Karp = %v cost %d, want %v cost %d", tc.name, tour, cost, tc.tour, tc.cost)
		}
		checkMatchesOracle(t, tc.name, tc.in)
	}
	// Theorem 3.3's spiders: by Proposition 2.2 the optimal tour of
	// L(G_n) costs π(G_n) − 1, and π(G_n) has a closed form.
	for n := 1; n <= 7; n++ {
		in := NewInstance(graph.LineGraph(family.Spider(n).Graph()))
		if _, cost := heldKarp(in); cost != family.SpiderOptimalEffectiveCost(n)-1 {
			t.Errorf("spider-%d: Held–Karp cost %d, want %d", n, cost, family.SpiderOptimalEffectiveCost(n)-1)
		}
		checkMatchesOracle(t, "spider", in)
	}
}

// TestExactMatchesHeldKarp is the differential: Exact returns Held–Karp's
// tour and cost on random good graphs of 1–13 cities (many of them
// disconnected), on the line graphs of random connected bipartite graphs
// with up to 16 edges, and on the line graph of every family generator
// at small sizes.
func TestExactMatchesHeldKarp(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	disconnected := 0
	for trial := 0; trial < 3000; trial++ {
		g := randomGood(rng, 1+rng.Intn(13))
		if g.ComponentCount() > 1 {
			disconnected++
		}
		checkMatchesOracle(t, "random good graph", NewInstance(g))
	}
	if disconnected < 500 {
		t.Fatalf("only %d of 3000 random good graphs are disconnected", disconnected)
	}
	for trial := 0; trial < 1500; trial++ {
		nl, nr := 1+rng.Intn(5), 1+rng.Intn(5)
		minM := nl + nr - 1
		m := minM + rng.Intn(min(16, nl*nr)-minM+1)
		g := graph.RandomConnectedBipartite(rng, nl, nr, m).Graph()
		checkMatchesOracle(t, "bipartite line graph", NewInstance(graph.LineGraph(g)))
	}
	for _, name := range family.All() {
		for size := 1; ; size++ {
			b, err := family.Build(name, size)
			if err != nil {
				t.Fatal(err)
			}
			if b.M() > 16 {
				break
			}
			checkMatchesOracle(t, string(name), NewInstance(graph.LineGraph(b.Graph())))
		}
	}
}

// FuzzExactMatchesOracle reads a good graph of 1–14 cities from the
// input — the first byte picks the city count, the following bits say
// which pairs (u, v), u < v in lexicographic order, are good — and
// requires Exact to return Held–Karp's tour and cost on it.
func FuzzExactMatchesOracle(f *testing.F) {
	f.Add([]byte{3})
	f.Add([]byte{5, 0xff, 0xff})
	f.Add([]byte{13, 0x55, 0xaa, 0x0f, 0xf0, 0x33, 0xcc, 0x01, 0x80, 0x11, 0x22})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%14
		bitsIn := data[1:]
		var edges []graph.Edge
		i := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if i/8 < len(bitsIn) && bitsIn[i/8]&(1<<(i%8)) != 0 {
					edges = append(edges, graph.Edge{U: u, V: v})
				}
				i++
			}
		}
		checkMatchesOracle(t, "fuzzed good graph", NewInstance(graph.New(n, edges)))
	})
}
