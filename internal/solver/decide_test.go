package solver

import (
	"context"
	"math/rand"
	"testing"

	"joinpebble/internal/core"
	"joinpebble/internal/family"
	"joinpebble/internal/graph"
)

func TestDecideAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		g := randomConnectedBip(rng)
		eff, err := OptimalEffectiveCost(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{eff - 1, eff, eff + 1, g.M() - 1, 2 * g.M()} {
			got, err := Decide(context.Background(), g, k)
			if err != nil {
				t.Fatal(err)
			}
			if got != (eff <= k) {
				t.Fatalf("trial %d: Decide(K=%d)=%v, π=%d", trial, k, got, eff)
			}
		}
	}
}

func TestDecideShortCircuits(t *testing.T) {
	// K below m must answer false without exact search even on huge
	// graphs; K above the Theorem 3.1 bound must answer true likewise.
	g := graph.RandomConnectedBipartite(rand.New(rand.NewSource(42)), 40, 40, 400).Graph()
	if ok, err := Decide(context.Background(), g, g.M()-1); err != nil || ok {
		t.Fatalf("K<m must be false: %v %v", ok, err)
	}
	if ok, err := Decide(context.Background(), g, 2*g.M()); err != nil || !ok {
		t.Fatalf("K=2m must be true: %v %v", ok, err)
	}
	// K at the approximation bound: certified by a polynomial solver.
	if ok, err := Decide(context.Background(), g, ApproxCostBound(g)); err != nil || !ok {
		t.Fatalf("K=approx bound must be true: %v %v", ok, err)
	}
}

func TestDecideEmptyGraph(t *testing.T) {
	g := graph.New(3)
	if ok, err := Decide(context.Background(), g, 0); err != nil || !ok {
		t.Fatal("edgeless graph pebbles in 0")
	}
	if ok, err := Decide(context.Background(), g, -1); err != nil || ok {
		t.Fatal("negative K with nothing to do")
	}
}

func TestApproxWithinLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		g := randomConnectedBip(rng)
		eff, err := OptimalEffectiveCost(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{1.5, 1, 0.3, 0.25, 0.2, 0.1, 0} {
			scheme, err := ApproxWithin(context.Background(), g, eps)
			if err != nil {
				t.Fatalf("trial %d eps=%v: %v", trial, eps, err)
			}
			if _, err := core.Verify(g, scheme); err != nil {
				t.Fatalf("trial %d eps=%v: invalid scheme: %v", trial, eps, err)
			}
			if got := float64(scheme.EffectiveCost(g)); got > (1+eps)*float64(eff)+1e-9 {
				t.Fatalf("trial %d: eps=%v promised %.2f, got π=%v (opt %d)",
					trial, eps, (1+eps)*float64(eff), got, eff)
			}
		}
	}
}

func TestApproxWithinRejectsNegativeEps(t *testing.T) {
	if _, err := ApproxWithin(context.Background(), graph.Matching(2).Graph(), -0.5); err == nil {
		t.Fatal("negative epsilon must error")
	}
}

func TestApproxWithinEmpty(t *testing.T) {
	scheme, err := ApproxWithin(context.Background(), graph.New(4), 0.1)
	if err != nil || len(scheme) != 0 {
		t.Fatal("edgeless graph needs no scheme")
	}
}

func TestHamiltonianLineGraphDecision(t *testing.T) {
	ok, err := HamiltonianLineGraphDecision(graph.CompleteBipartite(3, 3).Graph())
	if err != nil || !ok {
		t.Fatalf("K33 pebbles perfectly: %v %v", ok, err)
	}
	ok, err = HamiltonianLineGraphDecision(family.Spider(3).Graph())
	if err != nil || ok {
		t.Fatalf("spider-3 does not: %v %v", ok, err)
	}
	// Agreement with the cost-based predicate on random instances.
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 15; trial++ {
		g := randomConnectedBip(rng)
		viaHam, err := HamiltonianLineGraphDecision(g)
		if err != nil {
			t.Fatal(err)
		}
		viaCost, err := HasPerfectScheme(g)
		if err != nil {
			t.Fatal(err)
		}
		if viaHam != viaCost {
			t.Fatalf("trial %d: Prop 2.1 predicates disagree", trial)
		}
	}
}
