package solver

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"joinpebble/internal/core"
	"joinpebble/internal/graph"
)

// multiComponentGraph builds k random connected components glued into one
// graph, shuffling edge insertion so component edges interleave globally.
func multiComponentGraph(rng *rand.Rand, k int) *graph.Graph {
	type edge struct{ u, v int }
	var edges []edge
	base := 0
	for c := 0; c < k; c++ {
		n := 3 + rng.Intn(10)
		m := n - 1 + rng.Intn(n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		cg := graph.RandomConnectedGraph(rng, n, m, 0)
		for _, e := range cg.Edges() {
			edges = append(edges, edge{base + e.U, base + e.V})
		}
		base += n
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	g := graph.New(base)
	for _, e := range edges {
		g.AddEdge(e.u, e.v)
	}
	return g
}

// TestParallelSolveMatchesSequential locks in the determinism contract of
// solvePerComponent: any Parallelism setting yields the exact same scheme.
func TestParallelSolveMatchesSequential(t *testing.T) {
	defer func(p int) { Parallelism = p }(Parallelism)
	rng := rand.New(rand.NewSource(23))
	solvers := []Solver{Naive{}, Greedy{}, Approx125{}}
	for trial := 0; trial < 6; trial++ {
		g := multiComponentGraph(rng, 2+trial)
		for _, s := range solvers {
			var want core.Scheme
			for _, par := range []int{1, 2, 7, 0} {
				Parallelism = par
				got, cost, err := SolveAndVerify(context.Background(), s, g.Clone())
				if err != nil {
					t.Fatalf("trial %d %s parallelism=%d: %v", trial, s.Name(), par, err)
				}
				if par == 1 {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s: parallelism=%d scheme differs from sequential", trial, s.Name(), par)
				}
				_ = cost
			}
		}
	}
}
