package tsp

import (
	"context"
	"math/rand"
	"testing"

	"joinpebble/internal/graph"
)

func TestHungarianTiny(t *testing.T) {
	cost := [][]int64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	assign, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 { // 1 + 2 + 2
		t.Fatalf("total=%d want 5 (assign %v)", total, assign)
	}
	seen := make([]bool, 3)
	for _, j := range assign {
		if seen[j] {
			t.Fatal("assignment not a permutation")
		}
		seen[j] = true
	}
}

func TestHungarianAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		cost := make([][]int64, n)
		for i := range cost {
			cost[i] = make([]int64, n)
			for j := range cost[i] {
				cost[i][j] = int64(rng.Intn(20))
			}
		}
		_, got, err := Hungarian(cost)
		if err != nil {
			t.Fatal(err)
		}
		best := int64(1) << 40
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var rec func(k int, sum int64)
		rec = func(k int, sum int64) {
			if k == n {
				if sum < best {
					best = sum
				}
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k+1, sum+cost[k][perm[k]])
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0, 0)
		if got != best {
			t.Fatalf("trial %d: hungarian=%d brute=%d", trial, got, best)
		}
	}
}

func TestHungarianValidation(t *testing.T) {
	if _, _, err := Hungarian([][]int64{{1, 2}}); err == nil {
		t.Fatal("ragged matrix must fail")
	}
	if assign, total, err := Hungarian(nil); err != nil || len(assign) != 0 || total != 0 {
		t.Fatal("empty matrix should be trivially solved")
	}
}

func TestMinCycleCoverOnCycle(t *testing.T) {
	// Good graph = C6: the cycle itself is the min cycle cover, all
	// weight 1.
	var gEdges []graph.Edge
	for v := 0; v < 6; v++ {
		gEdges = append(gEdges, graph.Edge{U: v, V: (v + 1) % 6})
	}
	g := graph.New(6, gEdges)
	cycles, total, err := MinCycleCover(NewInstance(g))
	if err != nil {
		t.Fatal(err)
	}
	if total != 6 {
		t.Fatalf("total=%d want 6", total)
	}
	count := 0
	for _, c := range cycles {
		count += len(c)
	}
	if count != 6 {
		t.Fatalf("cycles cover %d of 6 cities", count)
	}
}

func TestMinCycleCoverCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(6)
		g := randConn(rng, n)
		cycles, _, err := MinCycleCover(NewInstance(g))
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n)
		for _, c := range cycles {
			for _, v := range c {
				if seen[v] {
					t.Fatalf("trial %d: city %d in two cycles", trial, v)
				}
				seen[v] = true
			}
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("trial %d: city %d uncovered", trial, v)
			}
		}
	}
}

func TestCycleCoverTourValidAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(7)
		g := randConn(rng, n)
		in := NewInstance(g)
		tour, cost, err := CycleCoverTour(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Validate(tour); err != nil {
			t.Fatal(err)
		}
		if in.Cost(tour) != cost {
			t.Fatal("cost mismatch")
		}
		if cost > in.CostUpperBound() {
			t.Fatalf("cost %d above universal bound", cost)
		}
	}
}

func TestCycleCoverTourNearOptimal(t *testing.T) {
	// The paper cites [12] for a 7/6 approximation; measure the ratio on
	// exact-solvable instances and require it comfortably below 7/6
	// plus the additive slack the path-vs-cycle difference allows.
	rng := rand.New(rand.NewSource(4))
	worst := 0.0
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(6)
		g := randConn(rng, n)
		in := NewInstance(g)
		_, opt, err := Exact(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := CycleCoverTour(in)
		if err != nil {
			t.Fatal(err)
		}
		if got < opt {
			t.Fatalf("trial %d: approximation beat the optimum — bug", trial)
		}
		if r := float64(got) / float64(opt); r > worst {
			worst = r
		}
	}
	if worst > 7.0/6.0+0.25 {
		t.Fatalf("cycle-cover tour ratio %.3f far above 7/6", worst)
	}
}

func TestCycleCoverTourTrivial(t *testing.T) {
	if tour, cost, err := CycleCoverTour(NewInstance(graph.New(0, nil))); err != nil || len(tour) != 0 || cost != 0 {
		t.Fatal("empty instance")
	}
	if tour, cost, err := CycleCoverTour(NewInstance(graph.New(1, nil))); err != nil || len(tour) != 1 || cost != 0 {
		t.Fatal("single city")
	}
}
