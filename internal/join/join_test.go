package join

import (
	"math/rand"
	"testing"
	"testing/quick"

	"joinpebble/internal/sets"
	"joinpebble/internal/spatial"
)

func TestGraphBuildsJoinGraph(t *testing.T) {
	ls := []int64{1, 2, 2}
	rs := []int64{2, 3}
	b := Graph(ls, rs, eqInt)
	if b.M() != 2 || !b.HasEdge(1, 0) || !b.HasEdge(2, 0) {
		t.Fatalf("join graph %v", b)
	}
}

func TestNestedLoopMatchesGraph(t *testing.T) {
	ls := []int64{1, 2, 3, 2}
	rs := []int64{2, 2, 4}
	pairs := NestedLoop(ls, rs, eqInt)
	b := Graph(ls, rs, eqInt)
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
		b := Graph(ls, rs, eqInt)
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
	b := Graph(ls, rs, eqInt)
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
	b := Graph(ls, rs, eqInt)
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
		if got := RTreeJoin(ls, rs, 8); !equalPairs(got, want) {
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
	b := Graph(ls, rs, eqString)
	audit, err := AuditPairs(b, zig)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Perfect {
		t.Fatalf("string zigzag merge should be a perfect pebbling: %+v", audit)
	}
}

func TestEquiGraphMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		ls := randInts(rng, 25, 6)
		rs := randInts(rng, 30, 6)
		want := Graph(ls, rs, eqInt)
		got := EquiGraph(ls, rs)
		if !got.Equal(want) {
			t.Fatalf("trial %d: grouped equijoin graph differs", trial)
		}
	}
}

func TestGraphFromPairsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ls := randInts(rng, 10, 3)
	rs := randInts(rng, 10, 3)
	b := Graph(ls, rs, eqInt)
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

// eqInt and eqString are the equijoin predicate over integers and
// strings, for the nested-loop references.
func eqInt(l, r int64) bool     { return l == r }
func eqString(l, r string) bool { return l == r }
