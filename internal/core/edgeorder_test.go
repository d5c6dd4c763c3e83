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

func TestCompactRemovesWaste(t *testing.T) {
	g := graph.New(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	// Wasteful detour: (0,1) delete, (0,2) waste, (1,2) delete.
	s := Scheme{{0, 1}, {0, 2}, {1, 2}}
	compacted, err := Compact(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Cost() >= s.Cost() {
		t.Fatalf("compaction did not help: %d vs %d", compacted.Cost(), s.Cost())
	}
	if !Perfect(g, compacted) {
		t.Fatal("compacted scheme should be perfect here")
	}
}

func TestCompactKeepsNecessaryBridges(t *testing.T) {
	// Matching: the intermediate jump configs are wasted but necessary
	// (neighbors are two moves apart), so compaction must keep them.
	g := graph.Matching(3).Graph()
	s := NaiveScheme(g)
	compacted, err := Compact(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Cost() != 2*g.M() {
		t.Fatalf("matching cost must stay 2m, got %d", compacted.Cost())
	}
}

func TestCompactNeverIncreasesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := graph.RandomBipartite(r, 2+r.Intn(4), 2+r.Intn(4), 0.5)
		g := b.Graph()
		if g.M() == 0 {
			return true
		}
		s := NaiveScheme(g)
		compacted, err := Compact(g, s)
		if err != nil {
			return false
		}
		cost, err := Verify(g, compacted)
		return err == nil && cost <= s.Cost()
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompactRejectsInvalidScheme(t *testing.T) {
	g := graph.New(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if _, err := Compact(g, Scheme{{0, 1}}); err == nil {
		t.Fatal("incomplete scheme must be rejected")
	}
}

func TestConcatAdditivity(t *testing.T) {
	// Lemma 2.2: π̂(G ⊔ H) = π̂(G) + π̂(H), realized by Concat.
	g := graph.New(2, []graph.Edge{{U: 0, V: 1}})
	h := graph.New(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})

	sg := Scheme{{0, 1}}
	sh := Scheme{{0, 1}, {2, 1}}
	u := graph.DisjointUnion(g, h)
	// Shift h's scheme into union numbering.
	shShifted := make(Scheme, len(sh))
	for i, c := range sh {
		shShifted[i] = Config{A: c.A + g.N(), B: c.B + g.N()}
	}
	combined := Concat(sg, shShifted)
	cost, err := Verify(u, combined)
	if err != nil {
		t.Fatal(err)
	}
	if want := sg.Cost() + sh.Cost(); cost != want {
		t.Fatalf("concat cost=%d want %d", cost, want)
	}
}

func TestConcatSkipsEmpty(t *testing.T) {
	s := Scheme{{0, 1}}
	out := Concat(nil, s, Scheme{})
	if len(out) != 1 {
		t.Fatalf("concat with empties: %v", out)
	}
}

func TestConcatManyComponents(t *testing.T) {
	// A matching pebbled component by component must cost exactly 2m.
	m := 6
	b := graph.Matching(m)
	g := b.Graph()
	parts := make([]Scheme, m)
	for i := 0; i < m; i++ {
		parts[i] = Scheme{{A: b.LeftVertex(i), B: b.RightVertex(i)}}
	}
	s := Concat(parts...)
	cost, err := Verify(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 2*m {
		t.Fatalf("matching cost=%d want %d (Lemma 2.4)", cost, 2*m)
	}
	if s.EffectiveCost(g) != m {
		t.Fatalf("effective=%d want m=%d", s.EffectiveCost(g), m)
	}
}
