package pages

import (
	"testing"

	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/solver"
	"joinpebble/internal/workload"
)

func TestSequentialLayout(t *testing.T) {
	l := Sequential(7, 5, 3)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.NRPages != 3 || l.NSPages != 2 {
		t.Fatalf("pages %d,%d", l.NRPages, l.NSPages)
	}
	if l.RPage[0] != 0 || l.RPage[2] != 0 || l.RPage[3] != 1 || l.RPage[6] != 2 {
		t.Fatalf("RPage=%v", l.RPage)
	}
}

func TestSequentialRejectsZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 must panic")
		}
	}()
	Sequential(3, 3, 0)
}

func TestValueClusteredGroupsValues(t *testing.T) {
	ls := []int64{9, 1, 9, 1}
	rs := []int64{1, 9}
	l := ValueClustered(ls, rs, 2)
	// The two 1s share a page, the two 9s share the other.
	if l.RPage[1] != l.RPage[3] || l.RPage[0] != l.RPage[2] || l.RPage[0] == l.RPage[1] {
		t.Fatalf("RPage=%v", l.RPage)
	}
}

func TestPageGraphQuotient(t *testing.T) {
	// 4x4 identity equijoin, capacity 2: page graph is a 2x2 matching.
	ls := []int64{0, 0, 1, 1}
	rs := []int64{0, 0, 1, 1}
	b := join.EquiGraph(ls, rs)
	pg, err := PageGraph(b, Sequential(4, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if pg.NLeft() != 2 || pg.NRight() != 2 || pg.M() != 2 {
		t.Fatalf("page graph %v", pg)
	}
	if !pg.HasEdge(0, 0) || !pg.HasEdge(1, 1) || pg.HasEdge(0, 1) {
		t.Fatal("quotient edges wrong")
	}
}

func TestPageGraphSizeMismatch(t *testing.T) {
	b := graph.NewBipartite(3, 3, nil)
	if _, err := PageGraph(b, Sequential(2, 3, 1)); err == nil {
		t.Fatal("layout/tuple mismatch must fail")
	}
}

func TestPlanBounds(t *testing.T) {
	w := workload.Equijoin{LeftSize: 40, RightSize: 40, Domain: 8, Skew: 0}
	l, r := w.Generate(3)
	b := join.EquiGraph(l.Ints(), r.Ints())
	sched, err := Plan(b, Sequential(40, 40, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Fetches < sched.LowerBound {
		t.Fatalf("fetches %d below lower bound %d", sched.Fetches, sched.LowerBound)
	}
	if sched.Fetches > 2*sched.PagePairs {
		t.Fatalf("fetches %d above the 2m page bound", sched.Fetches)
	}
}

func TestClusteredLayoutBeatsSequentialOnEquijoin(t *testing.T) {
	// The point of [6]-style scheduling: a value-clustered layout makes
	// the page graph sparse (few page pairs to co-load), so the fetch
	// schedule is cheaper than for an arbitrary sequential layout of the
	// same data. Use shuffled inputs so "sequential" really is arbitrary.
	w := workload.Equijoin{LeftSize: 120, RightSize: 120, Domain: 12, Skew: 0}
	l, r := w.Generate(9)
	ls, rs := l.Ints(), r.Ints()
	b := join.EquiGraph(ls, rs)
	const capacity = 10

	seq, err := Plan(b, Sequential(len(ls), len(rs), capacity), solver.Approx125{})
	if err != nil {
		t.Fatal(err)
	}
	clu, err := Plan(b, ValueClustered(ls, rs, capacity), solver.Approx125{})
	if err != nil {
		t.Fatal(err)
	}
	if clu.PagePairs >= seq.PagePairs {
		t.Fatalf("clustering should shrink the page graph: %d vs %d", clu.PagePairs, seq.PagePairs)
	}
	if clu.Fetches >= seq.Fetches {
		t.Fatalf("clustering should reduce fetches: %d vs %d", clu.Fetches, seq.Fetches)
	}
}

func TestCapacityOneIsTupleGame(t *testing.T) {
	// With one tuple per page the page graph IS the join graph, so the
	// [6] model degenerates to the paper's tuple-level game.
	ls := []int64{1, 2, 3}
	rs := []int64{2, 3, 3}
	b := join.EquiGraph(ls, rs)
	pg, err := PageGraph(b, Sequential(3, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !pg.Equal(b) {
		t.Fatal("capacity-1 page graph must equal the join graph")
	}
}

func TestPlanEmptyJoin(t *testing.T) {
	b := graph.NewBipartite(4, 4, nil)
	sched, err := Plan(b, Sequential(4, 4, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Fetches != 0 || sched.PagePairs != 0 {
		t.Fatalf("empty join should need no fetches: %+v", sched)
	}
}
