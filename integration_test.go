package joinpebble

// End-to-end integration tests driving the whole pipeline the way a
// downstream user would: generate workloads for each of the paper's
// three predicate classes, run every applicable join algorithm, audit
// the emission orders in the pebble model, solve the pebbling problem
// itself, and cross-check all the invariants the paper proves.

import (
	"math/rand"
	"testing"

	"joinpebble/internal/core"
	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/pages"
	"joinpebble/internal/partition"
	"joinpebble/internal/solver"
	"joinpebble/internal/workload"
)

func TestEndToEndEquijoin(t *testing.T) {
	w := workload.Equijoin{LeftSize: 150, RightSize: 170, Domain: 25, Skew: 0.7}
	l, r := w.Generate(100)
	ls, rs := l.Ints(), r.Ints()
	b := EquijoinGraph(ls, rs)
	if b.M() == 0 {
		t.Fatal("workload produced no joining pairs")
	}

	// Every algorithm computes the same result set.
	want := join.NestedLoop(ls, rs, func(l, r int64) bool { return l == r })
	for _, algo := range []struct {
		name  string
		pairs []Pair
	}{
		{"hash", join.HashJoin(ls, rs)},
		{"sort-merge", join.SortMerge(ls, rs)},
		{"zigzag", join.SortMergeZigzag(ls, rs)},
	} {
		if len(algo.pairs) != len(want) {
			t.Fatalf("%s produced %d pairs, want %d", algo.name, len(algo.pairs), len(want))
		}
		audit, err := AuditEmission(b, algo.pairs)
		if err != nil {
			t.Fatalf("%s: %v", algo.name, err)
		}
		if algo.name == "zigzag" && !audit.Perfect {
			t.Fatal("zigzag merge must be a perfect pebbling")
		}
	}

	// The solver agrees the graph pebbles perfectly.
	scheme, cost, err := Pebble(b)
	if err != nil {
		t.Fatal(err)
	}
	if !IsPerfect(b, scheme) {
		t.Fatal("equijoin graph must pebble perfectly")
	}
	g, _ := b.Graph().WithoutIsolated()
	if cost != g.M()+core.Betti0(g) {
		t.Fatalf("π̂=%d want m+β₀=%d", cost, g.M()+core.Betti0(g))
	}

	// Page scheduling and partitioning sit on top consistently.
	sched, err := PlanPageFetches(b, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Fetches < sched.LowerBound {
		t.Fatal("fetches below lower bound")
	}
	st, err := PartitionWork(b, partition.HashEquijoin(ls, rs, 16))
	if err != nil {
		t.Fatal(err)
	}
	if st.Work < st.ReadLowerBound {
		t.Fatal("partition work below lower bound")
	}
}

func TestEndToEndContainment(t *testing.T) {
	w := workload.SetContainment{LeftSize: 60, RightSize: 70, Universe: 300,
		LeftMax: 3, RightMax: 8, Correlated: true}
	l, r := w.Generate(200)
	ls, rs := l.Sets(), r.Sets()
	b := ContainmentGraph(ls, rs)
	if b.M() == 0 {
		t.Fatal("no joining pairs")
	}
	want := join.NestedLoop(ls, rs, join.Contains)
	for _, pairs := range [][]Pair{
		join.SignatureNestedLoop(ls, rs),
		join.InvertedIndexJoin(ls, rs),
		join.PartitionedSetJoin(ls, rs, 8),
	} {
		if len(pairs) != len(want) {
			t.Fatalf("containment algorithms disagree: %d vs %d", len(pairs), len(want))
		}
	}

	// Pebbling cost respects the universal bounds; the approximation
	// respects Theorem 3.1's bound.
	g, _ := b.Graph().WithoutIsolated()
	_, cost, err := PebbleWith(solver.Approx125{}, b)
	if err != nil {
		t.Fatal(err)
	}
	if cost < core.LowerBound(b.Graph()) || cost > solver.ApproxCostBound(g) {
		t.Fatalf("approx cost %d outside [%d, %d]", cost, core.LowerBound(b.Graph()), solver.ApproxCostBound(g))
	}
}

func TestEndToEndSpatial(t *testing.T) {
	w := workload.Spatial{LeftSize: 100, RightSize: 110, Span: 80, MaxExtent: 6, Clusters: 2}
	l, r := w.Generate(300)
	ls, rs := l.Rects(), r.Rects()
	b := OverlapGraph(ls, rs)
	if b.M() == 0 {
		t.Fatal("no overlapping pairs")
	}
	want := join.NestedLoop(ls, rs, join.Overlaps)
	if got := join.SweepJoin(ls, rs); len(got) != len(want) {
		t.Fatalf("sweep found %d pairs want %d", len(got), len(want))
	}
	if got := join.RTreeJoin(ls, rs); len(got) != len(want) {
		t.Fatalf("r-tree found %d pairs want %d", len(got), len(want))
	}
	if _, _, err := PebbleWith(solver.Approx125{}, b); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndHardFamilyAcrossRealizations(t *testing.T) {
	// The same combinatorial object — G_n — reached three ways: directly,
	// as a containment join, as a spatial join. All must agree on the
	// optimal cost.
	n := 5
	direct := HardFamily(n)
	cs, ss := AsContainmentJoin(direct)
	viaSets := ContainmentGraph(cs, ss)
	rr, sr := AsSpatialJoin(n)
	viaRects := OverlapGraph(rr, sr)

	c1, err := OptimalCost(direct)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := OptimalCost(viaSets)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := OptimalCost(viaRects)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 || c1 != c3 {
		t.Fatalf("realizations disagree: direct=%d sets=%d rects=%d", c1, c2, c3)
	}
	if c1-1 != HardFamilyOptimal(n) {
		t.Fatalf("optimal %d, closed form %d", c1-1, HardFamilyOptimal(n))
	}
}

func TestEndToEndAllSolversConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	b := graph.RandomConnectedBipartite(rng, 4, 4, 12)
	var exactCost int
	for _, s := range Solvers() {
		if s.Name() == "equijoin" {
			continue // random graph is not an equijoin graph
		}
		scheme, cost, err := PebbleWith(s, b)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if got, err := core.Verify(b.Graph(), scheme); err != nil || got != cost {
			t.Fatalf("%s: reverify gave %d/%v", s.Name(), got, err)
		}
		if s.Name() == "exact" {
			exactCost = cost
		}
	}
	if exactCost == 0 {
		t.Fatal("exact solver missing from lineup")
	}
	pg, err := pages.PageGraph(b, pages.Sequential(b.NLeft(), b.NRight(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if pg.M() > b.M() {
		t.Fatal("page graph cannot have more edges than the join graph")
	}
}
