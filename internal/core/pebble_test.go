package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"joinpebble/internal/graph"
)

func TestConfigCovers(t *testing.T) {
	e := graph.Edge{U: 1, V: 2}
	if !(Config{A: 1, B: 2}).Covers(e) || !(Config{A: 2, B: 1}).Covers(e) {
		t.Fatal("both orientations must cover")
	}
	if (Config{A: 1, B: 3}).Covers(e) {
		t.Fatal("non-matching config covers")
	}
}

func TestConfigMovesFrom(t *testing.T) {
	cases := []struct {
		a, b Config
		want int
	}{
		{Config{1, 2}, Config{1, 2}, 0},
		{Config{1, 2}, Config{2, 1}, 0},
		{Config{1, 2}, Config{1, 3}, 1},
		{Config{1, 2}, Config{3, 2}, 1},
		{Config{1, 2}, Config{2, 3}, 1}, // shares vertex 2 across pebbles
		{Config{1, 2}, Config{3, 4}, 2},
	}
	for _, c := range cases {
		if got := c.b.MovesFrom(c.a); got != c.want {
			t.Errorf("MovesFrom(%v -> %v) = %d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSchemeCost(t *testing.T) {
	if (Scheme{}).Cost() != 0 {
		t.Fatal("empty scheme costs 0")
	}
	s := Scheme{{0, 1}, {0, 2}, {3, 2}}
	if s.Cost() != 4 {
		t.Fatalf("cost=%d want k+1=4", s.Cost())
	}
}

func TestSimulateDeletesEdges(t *testing.T) {
	g := graph.New(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	s := Scheme{{0, 1}, {2, 1}, {2, 3}}
	res, err := Simulate(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() || res.WastedConfigs != 0 {
		t.Fatalf("result: %+v", res)
	}
	if cost, err := Verify(g, s); err != nil || cost != 4 {
		t.Fatalf("verify: cost=%d err=%v", cost, err)
	}
	if s.EffectiveCost(g) != 3 {
		t.Fatalf("effective cost=%d want m=3", s.EffectiveCost(g))
	}
}

func TestSimulateRejectsDoubleMove(t *testing.T) {
	g := graph.New(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if _, err := Simulate(g, Scheme{{0, 1}, {2, 3}}); err == nil {
		t.Fatal("jump without intermediate config must be rejected")
	}
}

func TestSimulateRejectsOutOfRange(t *testing.T) {
	g := graph.New(2, []graph.Edge{{U: 0, V: 1}})
	if _, err := Simulate(g, Scheme{{0, 5}}); err == nil {
		t.Fatal("out-of-range pebble must be rejected")
	}
}

func TestVerifyRejectsIncomplete(t *testing.T) {
	g := graph.New(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if _, err := Verify(g, Scheme{{0, 1}}); err == nil {
		t.Fatal("incomplete scheme must fail verification")
	}
}

func TestWastedConfigCounting(t *testing.T) {
	g := graph.New(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	// Jump with intermediate config (2,1): wasted unless it happens to be
	// an edge (it is not here).
	s := Scheme{{0, 1}, {2, 1}, {2, 3}}
	res, err := Simulate(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() || res.WastedConfigs != 1 {
		t.Fatalf("wasted=%d complete=%v", res.WastedConfigs, res.Complete())
	}
	if s.Cost() != 4 { // 2m for the 2-edge matching: Lemma 2.4
		t.Fatalf("matching cost=%d want 4", s.Cost())
	}
}

func TestBetti0IgnoresIsolated(t *testing.T) {
	g := graph.New(5, []graph.Edge{
		{U: 0, V: 1},
		{U: 2, V: 3}, // vertex 4 isolated
	})
	if Betti0(g) != 2 {
		t.Fatalf("betti0=%d want 2", Betti0(g))
	}
}

func TestBoundsLemma21(t *testing.T) {
	g := graph.New(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if LowerBound(g) != 4 { // m+1 for connected
		t.Fatalf("lower=%d", LowerBound(g))
	}
	if UpperBound(g) != 6 {
		t.Fatalf("upper=%d", UpperBound(g))
	}
}

func TestBoundsEmptyGraph(t *testing.T) {
	g := graph.New(3, nil)
	if LowerBound(g) != 0 || UpperBound(g) != 0 {
		t.Fatal("edgeless graph bounds must be 0")
	}
}

func TestNaiveSchemeAlwaysValidWithinUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := graph.RandomBipartite(r, 2+r.Intn(5), 2+r.Intn(5), 0.4)
		g := b.Graph()
		if g.M() == 0 {
			return len(NaiveScheme(g)) == 0
		}
		s := NaiveScheme(g)
		cost, err := Verify(g, s)
		return err == nil && cost <= UpperBound(g) && cost >= LowerBound(g)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPerfectDetection(t *testing.T) {
	g := graph.New(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	perfect := Scheme{{0, 1}, {2, 1}}
	if !Perfect(g, perfect) {
		t.Fatal("two adjacent edges pebble perfectly")
	}
	wasteful := Scheme{{0, 1}, {0, 2}, {1, 2}} // wasted middle config
	if Perfect(g, wasteful) {
		t.Fatal("wasteful scheme is not perfect")
	}
}
