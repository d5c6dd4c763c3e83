package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
)

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

// verifyScoped runs VerifyContext under a fresh request scope and
// returns the scope's counters alongside the verdict.
func verifyScoped(g *graph.Graph, s Scheme) (map[string]int64, int, error) {
	sc := obs.NewScope("test/verify")
	sc.SetRecorder(nil)
	defer sc.Close()
	cost, err := VerifyContext(obs.WithScope(context.Background(), sc), g, s)
	return sc.Snapshot().Counters, cost, err
}

func TestSimulateDeletesEdges(t *testing.T) {
	g := graph.New(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	s := Scheme{{0, 1}, {2, 1}, {2, 3}}
	counters, cost, err := verifyScoped(g, s)
	if err != nil || cost != 4 {
		t.Fatalf("verify: cost=%d err=%v", cost, err)
	}
	want := map[string]int64{
		"core/simulate/runs":           1,
		"core/simulate/configs":        3,
		"core/simulate/edges_deleted":  3,
		"core/simulate/wasted_configs": 0,
		"core/pebble/acquisitions":     4,
		"core/pebble/releases":         2,
	}
	for name, v := range want {
		if counters[name] != v {
			t.Errorf("%s = %d, want %d", name, counters[name], v)
		}
	}
	if s.EffectiveCost(g) != 3 {
		t.Fatalf("effective cost=%d want m=3", s.EffectiveCost(g))
	}
}

func TestSimulateRejectsDoubleMove(t *testing.T) {
	g := graph.New(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if _, err := Verify(g, Scheme{{0, 1}, {2, 3}}); err == nil {
		t.Fatal("jump without intermediate config must be rejected")
	}
}

func TestSimulateRejectsOutOfRange(t *testing.T) {
	g := graph.New(2, []graph.Edge{{U: 0, V: 1}})
	if _, err := Verify(g, Scheme{{0, 5}}); err == nil {
		t.Fatal("out-of-range pebble must be rejected")
	}
}

// TestVerifyRejectsRepeatedConfig pins that a configuration repeated in
// either orientation is a zero-move transition, which is why
// SchemeFromEdgeOrder needs no case for an edge its last configuration
// already covers.
func TestVerifyRejectsRepeatedConfig(t *testing.T) {
	g := graph.New(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	for _, s := range []Scheme{
		{{0, 1}, {0, 1}, {2, 1}},
		{{0, 1}, {1, 0}, {1, 2}},
	} {
		_, err := Verify(g, s)
		if err == nil || !strings.Contains(err.Error(), "moves 0 pebbles") {
			t.Errorf("%v: err = %v, want a zero-move transition", s, err)
		}
	}
}

func TestVerifyRejectsIncomplete(t *testing.T) {
	g := graph.New(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if _, err := Verify(g, Scheme{{0, 1}}); err == nil {
		t.Fatal("incomplete scheme must fail verification")
	}
}

// TestVerifyAllocatesOnce pins the referee's footprint: one deleted flag
// per edge and nothing else on a complete scheme.
func TestVerifyAllocatesOnce(t *testing.T) {
	g := graph.RandomConnectedBipartite(rand.New(rand.NewSource(3)), 20, 20, 200).Graph()
	s := NaiveScheme(g)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := VerifyContext(context.Background(), g, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("VerifyContext made %v allocations, want 1", allocs)
	}
}

func TestWastedConfigCounting(t *testing.T) {
	g := graph.New(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	// Jump with intermediate config (2,1): wasted unless it happens to be
	// an edge (it is not here).
	s := Scheme{{0, 1}, {2, 1}, {2, 3}}
	counters, cost, err := verifyScoped(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if w, d := counters["core/simulate/wasted_configs"], counters["core/simulate/edges_deleted"]; w != 1 || d != 2 {
		t.Fatalf("wasted=%d deleted=%d, want 1 and 2", w, d)
	}
	if cost != 4 { // 2m for the 2-edge matching: Lemma 2.4
		t.Fatalf("matching cost=%d want 4", cost)
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
