package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"joinpebble/internal/graph"
)

func TestEdgeOrderCostRuns(t *testing.T) {
	g := graph.New(5, []graph.Edge{
		{U: 0, V: 1}, // edge 0
		{U: 1, V: 2}, // edge 1
		{U: 3, V: 4}, // edge 2
	})
	if got := EdgeOrderCost(g, []int{0, 1, 2}); got != 5 {
		t.Fatalf("cost=%d want 2+1+2", got)
	}
	if got := EdgeOrderCost(g, []int{2, 0, 1}); got != 5 {
		t.Fatalf("cost=%d want 2+2+1", got)
	}
	if EdgeOrderCost(g, nil) != 0 {
		t.Fatal("empty order costs 0")
	}
}

func TestSchemeFromEdgeOrderMatchesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := graph.RandomBipartite(r, 2+r.Intn(4), 2+r.Intn(4), 0.5)
		g := b.Graph()
		if g.M() == 0 {
			return true
		}
		order := r.Perm(g.M())
		s, err := SchemeFromEdgeOrder(g, order)
		if err != nil {
			return false
		}
		cost, err := Verify(g, s)
		if err != nil {
			return false
		}
		// The explicit scheme can only be cheaper than the order's nominal
		// cost (an intermediate config may land on an edge and delete it
		// early, shortening nothing here but never lengthening).
		return cost == EdgeOrderCost(g, order)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestSchemeFromEdgeOrderExactSize pins the allocation count: the
// visited-edge bitmap and one scheme slice sized to m + jumps, however
// many jumps the order makes.
func TestSchemeFromEdgeOrderExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnectedGraph(rng, 60, 200, 0)
	order := rng.Perm(g.M())
	s, err := SchemeFromEdgeOrder(g, order)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != cap(s) || s.Cost() != EdgeOrderCost(g, order) {
		t.Fatalf("scheme len %d cap %d cost %d, want len == cap and cost %d", len(s), cap(s), s.Cost(), EdgeOrderCost(g, order))
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := SchemeFromEdgeOrder(g, order); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("SchemeFromEdgeOrder made %v allocations, want 2", allocs)
	}
}

func TestSchemeFromEdgeOrderValidation(t *testing.T) {
	g := graph.New(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if _, err := SchemeFromEdgeOrder(g, []int{0}); err == nil {
		t.Fatal("short order must fail")
	}
	if _, err := SchemeFromEdgeOrder(g, []int{0, 0}); err == nil {
		t.Fatal("duplicate edge must fail")
	}
	if _, err := SchemeFromEdgeOrder(g, []int{0, 7}); err == nil {
		t.Fatal("out-of-range edge must fail")
	}
}

func TestEdgeOrderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 30; trial++ {
		b := graph.RandomConnectedBipartite(rng, 3, 4, 8)
		g := b.Graph()
		order := rng.Perm(g.M())
		s, err := SchemeFromEdgeOrder(g, order)
		if err != nil {
			t.Fatal(err)
		}
		back, err := EdgeOrderFromScheme(g, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(order) {
			t.Fatalf("trial %d: round trip length %d want %d", trial, len(back), len(order))
		}
		// Intermediate jump configs may delete a later edge early, so the
		// orders need not be identical — but both must be permutations.
		seen := make(map[int]bool)
		for _, e := range back {
			if seen[e] {
				t.Fatalf("trial %d: duplicate edge in extracted order", trial)
			}
			seen[e] = true
		}
	}
}
