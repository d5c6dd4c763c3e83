package joinpebble

import (
	"testing"

	"joinpebble/internal/solver"
)

func TestQuickstartFlow(t *testing.T) {
	b := EquijoinGraph([]int64{1, 2, 2}, []int64{2, 2, 3})
	if b.M() != 4 {
		t.Fatalf("m=%d want 4", b.M())
	}
	scheme, cost, err := Pebble(b)
	if err != nil {
		t.Fatal(err)
	}
	if !IsPerfect(b, scheme) {
		t.Fatal("equijoin graph must pebble perfectly")
	}
	lo, hi := Bounds(b)
	if cost < lo || cost > hi {
		t.Fatalf("cost %d outside [%d,%d]", cost, lo, hi)
	}
	if EffectiveCost(b, scheme) != b.M() {
		t.Fatal("perfect scheme has π = m")
	}
}

func TestContainmentGraphFacade(t *testing.T) {
	ls := []Set{NewSet(1), NewSet(2)}
	rs := []Set{NewSet(1, 2), NewSet(2, 3)}
	b := ContainmentGraph(ls, rs)
	if b.M() != 3 { // {1}⊆{1,2}; {2}⊆{1,2}; {2}⊆{2,3}
		t.Fatalf("m=%d want 3", b.M())
	}
}

func TestOverlapGraphFacade(t *testing.T) {
	ls := []Rect{NewRect(0, 0, 2, 2)}
	rs := []Rect{NewRect(1, 1, 3, 3), NewRect(5, 5, 6, 6)}
	b := OverlapGraph(ls, rs)
	if b.M() != 1 || !b.HasEdge(0, 0) {
		t.Fatalf("overlap graph %v", b)
	}
}

func TestHardFamilyFacade(t *testing.T) {
	b := HardFamily(4)
	opt, err := OptimalCost(b)
	if err != nil {
		t.Fatal(err)
	}
	if opt-1 != HardFamilyOptimal(4) {
		t.Fatalf("π=%d want %d", opt-1, HardFamilyOptimal(4))
	}
	// The hard family must NOT pebble perfectly for n >= 3.
	scheme, _, err := Pebble(b)
	if err != nil {
		t.Fatal(err)
	}
	if IsPerfect(b, scheme) {
		t.Fatal("G_4 cannot pebble perfectly")
	}
}

func TestUniversalityFacade(t *testing.T) {
	b := HardFamily(3)
	r, s := AsContainmentJoin(b)
	back := ContainmentGraph(r, s)
	if !back.Equal(b) {
		t.Fatal("containment realization round trip failed")
	}
	rr, ss := AsSpatialJoin(3)
	sp := OverlapGraph(rr, ss)
	if sp.M() != 6 {
		t.Fatalf("spatial realization m=%d want 6", sp.M())
	}
}

func TestAuditEmissionFacade(t *testing.T) {
	b := EquijoinGraph([]int64{5, 5}, []int64{5, 5})
	pairs := []Pair{{L: 0, R: 0}, {L: 0, R: 1}, {L: 1, R: 1}, {L: 1, R: 0}}
	a, err := AuditEmission(b, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Perfect || a.Jumps != 0 {
		t.Fatalf("boustrophedon emission should be perfect: %+v", a)
	}
	if _, err := AuditEmission(b, []Pair{{L: 0, R: 0}, {L: 0, R: 1}, {L: 1, R: 1}, {L: 5, R: 0}}); err == nil {
		t.Fatal("a pair outside the join graph must be an error")
	}
}

func TestSolversLineup(t *testing.T) {
	names := map[string]bool{}
	for _, s := range Solvers() {
		names[s.Name()] = true
	}
	for _, want := range []string{"naive", "greedy", "approx-1.25", "exact", "equijoin"} {
		if !names[want] {
			t.Fatalf("missing solver %q in %v", want, names)
		}
	}
}

func TestDecideFacade(t *testing.T) {
	b := HardFamily(3) // π = 7, m = 6
	for _, c := range []struct {
		k    int
		want bool
	}{{5, false}, {6, false}, {7, true}, {12, true}} {
		got, err := Decide(b, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("Decide(G_3, %d)=%v want %v", c.k, got, c.want)
		}
	}
}

func TestApproxWithinFacade(t *testing.T) {
	b := HardFamily(4) // π = 9, m = 8
	for _, eps := range []float64{1, 0.25, 0} {
		scheme, err := ApproxWithin(b, eps)
		if err != nil {
			t.Fatal(err)
		}
		eff := EffectiveCost(b, scheme)
		if float64(eff) > (1+eps)*float64(HardFamilyOptimal(4)) {
			t.Fatalf("eps=%v gave π=%d, optimal %d", eps, eff, HardFamilyOptimal(4))
		}
	}
}

func TestPageAndPartitionFacades(t *testing.T) {
	b := EquijoinGraph([]int64{1, 1, 2, 2}, []int64{1, 2, 2, 3})
	sched, err := PlanPageFetches(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Fetches < sched.LowerBound {
		t.Fatal("fetch schedule below floor")
	}
	st, err := PartitionWork(b, nil)
	if err == nil {
		t.Fatal("nil assignment must error")
	}
	_ = st
}

func TestPebbleWithFacade(t *testing.T) {
	b := HardFamily(3)
	_, cost, err := PebbleWith(solver.Approx125{}, b)
	if err != nil {
		t.Fatal(err)
	}
	if cost > solver.ApproxCostBound(b.Graph()) {
		t.Fatal("approx bound violated through facade")
	}
}
