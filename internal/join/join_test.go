package join

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"joinpebble/internal/graph"
	"joinpebble/internal/sets"
	"joinpebble/internal/spatial"
	"joinpebble/internal/workload"
)

func TestGraphBuildsJoinGraph(t *testing.T) {
	ls := []int64{1, 2, 2}
	rs := []int64{2, 3}
	b := nestedLoopGraph(ls, rs, eqInt)
	if b.M() != 2 || !b.HasEdge(1, 0) || !b.HasEdge(2, 0) {
		t.Fatalf("join graph %v", b)
	}
}

func TestNestedLoopMatchesGraph(t *testing.T) {
	ls := []int64{1, 2, 3, 2}
	rs := []int64{2, 2, 4}
	pairs := NestedLoop(ls, rs, eqInt)
	b := nestedLoopGraph(ls, rs, eqInt)
	if len(pairs) != b.M() {
		t.Fatalf("%d pairs vs %d edges", len(pairs), b.M())
	}
	for _, p := range pairs {
		if !b.HasEdge(p.L, p.R) {
			t.Fatalf("pair %v not an edge", p)
		}
	}
}

func TestHashJoinEqualsNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ls := randInts(r, 20, 6)
		rs := randInts(r, 25, 6)
		return equalPairs(HashJoin(ls, rs), NestedLoop(ls, rs, eqInt))
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortMergeVariantsEqualNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		ls := randInts(rng, 15, 5)
		rs := randInts(rng, 18, 5)
		want := NestedLoop(ls, rs, eqInt)
		if !equalPairs(SortMerge(ls, rs), want) {
			t.Fatalf("trial %d: SortMerge result differs", trial)
		}
		if !equalPairs(SortMergeZigzag(ls, rs), want) {
			t.Fatalf("trial %d: SortMergeZigzag result differs", trial)
		}
	}

	// Float keys with NaN on one side, on both, and beside real matches:
	// under == a NaN matches nothing. The merges run under a timer, so a
	// merge that stalls on a NaN fails instead of hanging the test.
	nan := math.NaN()
	floats := [][2][]float64{
		{{nan}, {nan}},
		{{nan, 1}, {1}},
		{{1}, {nan, 1, nan}},
		{{nan, 2, nan, 1, 2}, {2, nan, 1, nan, 2}},
		{{math.Inf(1), nan, math.Copysign(0, -1), 3}, {0, nan, math.Inf(1), 3, nan}},
	}
	done := make(chan string, 1)
	go func() {
		for i, c := range floats {
			want := NestedLoop(c[0], c[1], func(l, r float64) bool { return l == r })
			if !equalPairs(SortMerge(c[0], c[1]), want) {
				done <- fmt.Sprintf("float case %d: SortMerge result differs", i)
				return
			}
			if !equalPairs(SortMergeZigzag(c[0], c[1]), want) {
				done <- fmt.Sprintf("float case %d: SortMergeZigzag result differs", i)
				return
			}
		}
		done <- ""
	}()
	select {
	case msg := <-done:
		if msg != "" {
			t.Fatal(msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a sort-merge join on NaN keys did not return within 2s")
	}
}

func TestSortMergeZigzagIsPerfect(t *testing.T) {
	// The zigzag merge realizes Lemma 3.2's perfect pebbling: π = m on
	// every equijoin workload.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		ls := randInts(rng, 2+rng.Intn(30), 4)
		rs := randInts(rng, 2+rng.Intn(30), 4)
		pairs := SortMergeZigzag(ls, rs)
		if len(pairs) == 0 {
			continue
		}
		b := nestedLoopGraph(ls, rs, eqInt)
		audit, err := AuditPairs(b, pairs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !audit.Perfect {
			t.Fatalf("trial %d: zigzag merge not perfect: %+v", trial, audit)
		}
	}
}

func TestSortMergeRewindCostsJumps(t *testing.T) {
	// The textbook rewind merge pays a jump per left-tuple switch within
	// a value group (for groups with >= 2 right tuples), so it is NOT a
	// perfect pebbling in general — the asymmetry the E15 experiment
	// quantifies.
	ls := []int64{7, 7, 7}
	rs := []int64{7, 7, 7}
	pairsRewind := SortMerge(ls, rs)
	pairsZig := SortMergeZigzag(ls, rs)
	b := nestedLoopGraph(ls, rs, eqInt)
	ar, err := AuditPairs(b, pairsRewind)
	if err != nil {
		t.Fatal(err)
	}
	az, err := AuditPairs(b, pairsZig)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Jumps != 2 { // two left-switches, each a rewind jump
		t.Fatalf("rewind jumps=%d want 2", ar.Jumps)
	}
	if az.Jumps != 0 || !az.Perfect {
		t.Fatalf("zigzag should be jump-free: %+v", az)
	}
	if ar.Cost <= az.Cost {
		t.Fatal("rewind must cost strictly more than zigzag here")
	}
}

func TestAuditPairsValidation(t *testing.T) {
	ls := []int64{1, 2}
	rs := []int64{1, 2}
	b := nestedLoopGraph(ls, rs, eqInt)
	if _, err := AuditPairs(b, []Pair{{0, 0}}); err == nil {
		t.Fatal("missing pairs must fail")
	}
	if _, err := AuditPairs(b, []Pair{{0, 0}, {0, 1}}); err == nil {
		t.Fatal("non-edge pair must fail")
	}
	if _, err := AuditPairs(b, []Pair{{0, 0}, {0, 0}}); err == nil {
		t.Fatal("duplicate pair must fail")
	}
	for _, p := range []Pair{{2, 0}, {0, 2}, {-1, 0}, {0, -1}} {
		if _, err := AuditPairs(b, []Pair{{0, 0}, p}); err == nil {
			t.Fatalf("pair %v outside the 2x2 join graph must fail", p)
		}
	}
	audit, err := AuditPairs(b, []Pair{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if audit.Cost != 4 || audit.Jumps != 1 || audit.EffectiveCost != 2 || !audit.Perfect {
		t.Fatalf("audit %+v", audit)
	}
}

func TestContainmentJoinsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		ls := randSets(rng, 15, 4, 8)
		rs := randSets(rng, 20, 8, 8)
		want := NestedLoop(ls, rs, Contains)
		if got := SignatureNestedLoop(ls, rs); !equalPairs(got, want) {
			t.Fatalf("trial %d: signature join differs", trial)
		}
		if got := InvertedIndexJoin(ls, rs); !equalPairs(got, want) {
			t.Fatalf("trial %d: inverted index join differs", trial)
		}
		for _, parts := range []int{1, 3, 7} {
			if got := PartitionedSetJoin(ls, rs, parts); !equalPairs(got, want) {
				t.Fatalf("trial %d: partitioned join (%d parts) differs", trial, parts)
			}
		}
	}
}

func TestContainmentJoinEmptyProbe(t *testing.T) {
	ls := []sets.Set{sets.New()} // empty set joins everything
	rs := []sets.Set{sets.New(1), sets.New(2, 3), sets.New()}
	want := NestedLoop(ls, rs, Contains)
	if len(want) != 3 {
		t.Fatalf("empty set should join all %d right tuples", len(rs))
	}
	if got := InvertedIndexJoin(ls, rs); !equalPairs(got, want) {
		t.Fatal("inverted index join mishandles empty probe")
	}
	if got := PartitionedSetJoin(ls, rs, 4); !equalPairs(got, want) {
		t.Fatal("partitioned join mishandles empty probe")
	}
	if got := SignatureNestedLoop(ls, rs); !equalPairs(got, want) {
		t.Fatal("signature join mishandles empty probe")
	}
}

func TestSpatialJoinsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		ls := randRects(rng, 30, 40)
		rs := randRects(rng, 35, 40)
		want := NestedLoop(ls, rs, Overlaps)
		if got := RTreeJoin(ls, rs); !equalPairs(got, want) {
			t.Fatalf("trial %d: R-tree join differs", trial)
		}
		if got := SweepJoin(ls, rs); !equalPairs(got, want) {
			t.Fatalf("trial %d: sweep join differs", trial)
		}
	}
}

func TestPolygonJoinPrefilterAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		ls := randTriangles(rng, 20, 30)
		rs := randTriangles(rng, 20, 30)
		want := PolygonNestedLoop(ls, rs, false)
		if got := PolygonNestedLoop(ls, rs, true); !equalPairs(got, want) {
			t.Fatalf("trial %d: prefilter changed polygon join results", trial)
		}
	}
}

func TestSortMergeOverStrings(t *testing.T) {
	// §3.1: equijoin domains include character strings; the generic
	// merge must behave identically there, including the zigzag's
	// perfect pebbling.
	ls := []string{"apple", "banana", "banana", "cherry"}
	rs := []string{"banana", "banana", "cherry", "date"}
	want := NestedLoop(ls, rs, eqString)
	if !equalPairs(SortMerge(ls, rs), want) {
		t.Fatal("string sort-merge differs from nested loop")
	}
	zig := SortMergeZigzag(ls, rs)
	if !equalPairs(zig, want) {
		t.Fatal("string zigzag merge differs from nested loop")
	}
	b := nestedLoopGraph(ls, rs, eqString)
	audit, err := AuditPairs(b, zig)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Perfect {
		t.Fatalf("string zigzag merge should be a perfect pebbling: %+v", audit)
	}
}

// TestEquiGraphMatchesGraph: the graph built from the value groups is
// the nested loop's, edge for edge, span for span and component for
// component, on random columns and on the edge cases.
func TestEquiGraphMatchesGraph(t *testing.T) {
	cases := []struct {
		name   string
		ls, rs []int64
	}{
		{"no tuples", nil, nil},
		{"no left tuples", nil, []int64{1, 1, 2}},
		{"no right tuples", []int64{3, 1}, nil},
		{"no shared value", []int64{1, 2, 1}, []int64{3, 4, 4, 5}},
		{"one value for every tuple", []int64{7, 7, 7}, []int64{7, 7, 7, 7}},
		{"values on one side only", []int64{5, 1, 6, 1, 8, 2}, []int64{2, 9, 1, 3, 2, 9}},
		{"extreme values", []int64{math.MaxInt64, math.MinInt64, 0, -1}, []int64{-1, math.MinInt64, math.MaxInt64, math.MaxInt64}},
	}
	for _, c := range cases {
		checkEqui(t, c.name, c.ls, c.rs)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		checkEqui(t, fmt.Sprintf("trial %d", trial), randInts(rng, 25, 6), randInts(rng, 30, 6))
	}
}

// TestEquiGraphAllocations: the build takes a small constant number of
// allocations, sized from the value groups, however many distinct values
// the columns hold: the zipf-1.2 input of the build/equijoin-m* bench
// series at 920 tuples a side, all values distinct, and a single value.
func TestEquiGraphAllocations(t *testing.T) {
	const n = 920
	l, r := workload.Equijoin{LeftSize: n, RightSize: n, Domain: n, Skew: 1.2}.Generate(7) // the bench's seed
	distinct, single := make([]int64, n), make([]int64, n)
	for i := range distinct {
		distinct[i], single[i] = int64(i), 7
	}
	zipf := testing.AllocsPerRun(10, func() { EquiGraph(l.Ints(), r.Ints()) })
	if zipf > 16 {
		t.Fatalf("EquiGraph on %dx%d zipf-1.2 made %v allocations, want at most 16", n, n, zipf)
	}
	for _, c := range []struct {
		name string
		vs   []int64
	}{{"distinct values", distinct}, {"one value", single}} {
		if got := testing.AllocsPerRun(10, func() { EquiGraph(c.vs, c.vs) }); got != zipf {
			t.Fatalf("EquiGraph on %dx%d with %s made %v allocations, zipf-1.2 %v", n, n, c.name, got, zipf)
		}
	}
}

func TestGraphFromPairsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ls := randInts(rng, 10, 3)
	rs := randInts(rng, 10, 3)
	b := nestedLoopGraph(ls, rs, eqInt)
	pairs := NestedLoop(ls, rs, eqInt)
	b2 := GraphFromPairs(len(ls), len(rs), pairs)
	if !b.Equal(b2) {
		t.Fatal("graph from pairs differs from direct graph")
	}
}

func randInts(rng *rand.Rand, n int, domain int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(domain)
	}
	return out
}

func randSets(rng *rand.Rand, n, maxLen, universe int) []sets.Set {
	out := make([]sets.Set, n)
	for i := range out {
		k := rng.Intn(maxLen + 1)
		es := make([]uint32, k)
		for j := range es {
			es[j] = uint32(rng.Intn(universe))
		}
		out[i] = sets.New(es...)
	}
	return out
}

func randRects(rng *rand.Rand, n int, span float64) []spatial.Rect {
	out := make([]spatial.Rect, n)
	for i := range out {
		x, y := rng.Float64()*span, rng.Float64()*span
		out[i] = spatial.NewRect(x, y, x+rng.Float64()*6, y+rng.Float64()*6)
	}
	return out
}

func randTriangles(rng *rand.Rand, n int, span float64) []spatial.Polygon {
	out := make([]spatial.Polygon, n)
	for i := range out {
		x, y := rng.Float64()*span, rng.Float64()*span
		p, err := spatial.NewPolygon(
			spatial.Point{X: x, Y: y},
			spatial.Point{X: x + 2 + rng.Float64()*3, Y: y},
			spatial.Point{X: x, Y: y + 2 + rng.Float64()*3},
		)
		if err != nil {
			panic(err)
		}
		out[i] = p
	}
	return out
}

// nestedLoopGraph builds the join graph of two tuple slices under pred
// by evaluating the predicate on the full cross product: the reference
// semantics of §2, quadratic by design.
func nestedLoopGraph[L, R any](ls []L, rs []R, pred func(L, R) bool) *graph.Bipartite {
	var edges []graph.Edge
	for i, l := range ls {
		for j, r := range rs {
			if pred(l, r) {
				edges = append(edges, graph.Edge{U: i, V: j})
			}
		}
	}
	return graph.NewBipartite(len(ls), len(rs), edges)
}

// equalPairs reports whether two pair sets are equal regardless of order.
func equalPairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]Pair(nil), a...)
	bs := append([]Pair(nil), b...)
	less := func(p, q Pair) bool { return p.L < q.L || (p.L == q.L && p.R < q.R) }
	sort.Slice(as, func(i, j int) bool { return less(as[i], as[j]) })
	sort.Slice(bs, func(i, j int) bool { return less(bs[i], bs[j]) })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// eqInt and eqString are the equijoin predicate over integers and
// strings, for the nested-loop references.
func eqInt(l, r int64) bool     { return l == r }
func eqString(l, r string) bool { return l == r }
