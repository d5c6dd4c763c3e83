package tsp

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"joinpebble/internal/graph"
)

// randConn returns a random connected graph on n vertices with a random
// feasible edge count.
func randConn(r *rand.Rand, n int) *graph.Graph {
	maxM := n * (n - 1) / 2
	m := n - 1 + r.Intn(maxM-(n-1)+1)
	return graph.RandomConnectedGraph(r, n, m, 0)
}

func pathInstance(n int) *Instance {
	var gEdges []graph.Edge
	for v := 1; v < n; v++ {
		gEdges = append(gEdges, graph.Edge{U: v - 1, V: v})
	}
	g := graph.New(n, gEdges)
	return NewInstance(g)
}

func TestWeight(t *testing.T) {
	in := pathInstance(3)
	if in.Weight(0, 1) != 1 || in.Weight(0, 2) != 2 {
		t.Fatal("weights wrong")
	}
}

func TestCostAndJumps(t *testing.T) {
	in := pathInstance(4)
	if c := in.Cost(Tour{0, 1, 2, 3}); c != 3 {
		t.Fatalf("all-good tour cost=%d want 3", c)
	}
	if c := in.Cost(Tour{1, 0, 2, 3}); c != 4 {
		t.Fatalf("tour with 1 jump cost=%d want 1+2+1", c)
	}
	if j := in.Jumps(Tour{1, 0, 2, 3}); j != 1 {
		t.Fatalf("jumps=%d want 1", j)
	}
	if j := in.Jumps(Tour{0, 2, 1, 3}); j != 2 {
		t.Fatalf("jumps=%d want 2", j)
	}
}

func TestValidate(t *testing.T) {
	in := pathInstance(3)
	if err := in.Validate(Tour{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Tour{{0, 1}, {0, 1, 1}, {0, 1, 5}} {
		if err := in.Validate(bad); err == nil {
			t.Fatalf("tour %v should be invalid", bad)
		}
	}
}

func TestExactOnPath(t *testing.T) {
	in := pathInstance(6)
	tour, cost, err := Exact(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 5 {
		t.Fatalf("path optimal cost=%d want n-1", cost)
	}
	if in.Cost(tour) != cost {
		t.Fatal("reported cost disagrees with tour")
	}
}

func TestExactOnMatchingGoodGraph(t *testing.T) {
	// Good graph = 3 disjoint good edges over 6 cities: optimal tour uses
	// all 3 good edges and 2 jumps: cost 3*1 + 2*2 = 7.
	g := graph.New(6, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}})
	in := NewInstance(g)
	_, cost, err := Exact(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 7 {
		t.Fatalf("cost=%d want 7", cost)
	}
}

func TestExactRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(7)
		g := randConn(r, n)
		in := NewInstance(g)
		tour, cost, err := Exact(context.Background(), in)
		if err != nil {
			return false
		}
		if in.Validate(tour) != nil {
			return false
		}
		return cost >= in.N()-1+jumpLowerBound(g) && cost <= costUpperBound(in)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// jumpLowerBound is the B+/B− counting of Theorem 3.3's proof on a good
// graph: a city with d good edges has at most min(d, 2) good tour
// incidences, the two ends one each and every other city two, so
// 2J >= Σ_v max(0, 2 − d(v)) − 2; a tour also jumps at least once
// between consecutive components of the good graph.
func jumpLowerBound(good *graph.Graph) int {
	deficit := -2
	for v := 0; v < good.N(); v++ {
		deficit += max(0, 2-good.Degree(v))
	}
	return max((deficit+1)/2, good.ComponentCount()-1, 0)
}

func TestExactRejectsLargeInstance(t *testing.T) {
	var path []graph.Edge
	for v := 1; v <= MaxExactCities; v++ {
		path = append(path, graph.Edge{U: v - 1, V: v})
	}
	if _, _, err := Exact(context.Background(), NewInstance(graph.New(MaxExactCities+1, path))); err == nil {
		t.Fatal("oversized instance must be rejected")
	}
}

func TestNearestNeighborValidAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(10)
		g := randConn(rng, n)
		in := NewInstance(g)
		tour, cost := NearestNeighbor(in)
		if err := in.Validate(tour); err != nil {
			t.Fatal(err)
		}
		if in.Cost(tour) != cost {
			t.Fatal("cost mismatch")
		}
		if cost > costUpperBound(in) {
			t.Fatalf("NN cost %d above universal bound %d", cost, costUpperBound(in))
		}
	}
}

func TestNearestNeighborOptimalOnPath(t *testing.T) {
	in := pathInstance(8)
	_, cost := NearestNeighbor(in)
	if cost != 7 {
		t.Fatalf("NN on path: cost=%d want 7", cost)
	}
}

func TestTwoOptImproves(t *testing.T) {
	in := pathInstance(6)
	bad := Tour{0, 2, 4, 1, 3, 5}
	improved, cost := TwoOptImprove(in, bad)
	if err := in.Validate(improved); err != nil {
		t.Fatal(err)
	}
	if cost > in.Cost(bad) {
		t.Fatal("2-opt made the tour worse")
	}
	if cost != 5 {
		t.Fatalf("2-opt on path should reach optimum 5, got %d", cost)
	}
}

func TestTwoOptNeverWorseThanInput(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(6)
		g := randConn(r, n)
		in := NewInstance(g)
		start := Tour(r.Perm(n))
		improved, cost := TwoOptImprove(in, start)
		return in.Validate(improved) == nil && cost <= in.Cost(start)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPathCoverValid(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(8)
		g := randConn(rng, n)
		in := NewInstance(g)
		tour, cost := GreedyPathCover(in)
		if err := in.Validate(tour); err != nil {
			t.Fatal(err)
		}
		if in.Cost(tour) != cost {
			t.Fatal("cost mismatch")
		}
	}
}

func TestSolveSmallAndEmpty(t *testing.T) {
	ctx := context.Background()
	if tour, cost, err := Exact(ctx, NewInstance(graph.New(0, nil))); err != nil || len(tour) != 0 || cost != 0 {
		t.Fatal("empty instance")
	}
	if tour, cost, err := Exact(ctx, NewInstance(graph.New(1, nil))); err != nil || len(tour) != 1 || cost != 0 {
		t.Fatal("single city")
	}
	if _, cost, err := Exact(ctx, pathInstance(5)); err != nil || cost != 4 {
		t.Fatal("solve on path")
	}
}

func TestHeldKarpAgainstBruteForceTiny(t *testing.T) {
	// Exhaustive permutation check of the Held–Karp oracle and Exact on
	// 4-city instances over a few random good graphs.
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomBipartite(rng, 2, 2, 0.5).Graph()
		in := NewInstance(g)
		_, got, err := Exact(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		best := 1 << 30
		perm := []int{0, 1, 2, 3}
		var rec func(k int)
		rec = func(k int) {
			if k == 4 {
				if c := in.Cost(perm); c < best {
					best = c
				}
				return
			}
			for i := k; i < 4; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
		if _, hk := heldKarp(in); hk != best || got != best {
			t.Fatalf("trial %d: held-karp=%d exact=%d brute=%d", trial, hk, got, best)
		}
	}
}

// costUpperBound is the universal upper bound 2(n−1) on a tour's cost:
// every step costs at most 2.
func costUpperBound(in *Instance) int {
	if in.N() == 0 {
		return 0
	}
	return 2 * (in.N() - 1)
}
