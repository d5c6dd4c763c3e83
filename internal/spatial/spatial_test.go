package spatial

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectOverlaps(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	cases := []struct {
		b    Rect
		want bool
	}{
		{NewRect(1, 1, 3, 3), true},
		{NewRect(2, 2, 3, 3), true}, // corner touch: closed semantics
		{NewRect(2.1, 0, 3, 2), false},
		{NewRect(0.5, 0.5, 1.5, 1.5), true}, // containment
		{NewRect(-1, -1, -0.5, -0.5), false},
		{NewRect(0, 2, 2, 4), true}, // edge touch
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v want %v", a, c.b, got, c.want)
		}
		if c.b.Overlaps(a) != c.want {
			t.Errorf("overlap not symmetric for %v", c.b)
		}
	}
}

func TestRectContains(t *testing.T) {
	a := NewRect(0, 0, 4, 4)
	if !a.Contains(NewRect(1, 1, 2, 2)) || !a.Contains(a) {
		t.Fatal("containment")
	}
	if a.Contains(NewRect(1, 1, 5, 2)) {
		t.Fatal("partial overlap is not containment")
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(3, 4, 1, 2)
	if r.MinX != 1 || r.MinY != 2 || r.MaxX != 3 || r.MaxY != 4 {
		t.Fatalf("got %v", r)
	}
	if !r.Valid() {
		t.Fatal("normalized rect must be valid")
	}
}

func TestRectUnionArea(t *testing.T) {
	a, b := NewRect(0, 0, 1, 1), NewRect(2, 2, 3, 3)
	u := a.Union(b)
	if u != NewRect(0, 0, 3, 3) {
		t.Fatalf("union=%v", u)
	}
	if a.Area() != 1 || u.Area() != 9 {
		t.Fatal("area")
	}
	if a.EnlargedArea(b) != 9 {
		t.Fatal("enlarged area")
	}
}

func TestPolygonValidation(t *testing.T) {
	if _, err := NewPolygon(Point{0, 0}, Point{1, 0}); err == nil {
		t.Fatal("two points are not a polygon")
	}
	// Clockwise square must be rejected.
	if _, err := NewPolygon(Point{0, 0}, Point{0, 1}, Point{1, 1}, Point{1, 0}); err == nil {
		t.Fatal("CW orientation must be rejected")
	}
	// Non-convex "arrow" must be rejected.
	if _, err := NewPolygon(Point{0, 0}, Point{2, 0}, Point{1, 0.5}, Point{2, 2}); err == nil {
		t.Fatal("non-convex polygon must be rejected")
	}
	if _, err := NewPolygon(Point{0, 0}, Point{1, 0}, Point{0, 1}); err != nil {
		t.Fatalf("CCW triangle rejected: %v", err)
	}
}

func TestPolygonOverlapBasic(t *testing.T) {
	tri1, _ := NewPolygon(Point{0, 0}, Point{2, 0}, Point{0, 2})
	tri2, _ := NewPolygon(Point{1, 1}, Point{3, 1}, Point{1, 3})
	tri3, _ := NewPolygon(Point{5, 5}, Point{6, 5}, Point{5, 6})
	if !tri1.Overlaps(tri2) {
		t.Fatal("overlapping triangles reported disjoint")
	}
	if tri1.Overlaps(tri3) {
		t.Fatal("distant triangles reported overlapping")
	}
	if !tri1.Overlaps(tri1) {
		t.Fatal("self overlap")
	}
}

func TestPolygonOverlapMatchesRects(t *testing.T) {
	// SAT on rectangle polygons must agree with the direct rectangle test.
	rng := rand.New(rand.NewSource(1))
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	err := quick.Check(func(ax, ay, bx, by uint8) bool {
		a := NewRect(float64(ax%10), float64(ay%10), float64(ax%10)+2, float64(ay%10)+2)
		b := NewRect(float64(bx%10), float64(by%10), float64(bx%10)+3, float64(by%10)+1)
		return a.Overlaps(b) == rectPolygon(a).Overlaps(rectPolygon(b))
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPolygonBounds(t *testing.T) {
	tri, _ := NewPolygon(Point{0, 0}, Point{4, 1}, Point{1, 3})
	if got := tri.Bounds(); got != NewRect(0, 0, 4, 3) {
		t.Fatalf("bounds=%v", got)
	}
}

func randomRects(rng *rand.Rand, n int, span float64) []Rect {
	out := make([]Rect, n)
	for i := range out {
		x, y := rng.Float64()*span, rng.Float64()*span
		out[i] = NewRect(x, y, x+rng.Float64()*5, y+rng.Float64()*5)
	}
	return out
}

func TestRTreeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		data := randomRects(rng, 200, 50)
		tree := NewRTree(8)
		for i, r := range data {
			tree.Insert(r, i)
		}
		if tree.Len() != len(data) {
			t.Fatal("Len mismatch")
		}
		for q := 0; q < 20; q++ {
			query := randomRects(rng, 1, 50)[0]
			got := tree.Search(query)
			var want []int
			for i, r := range data {
				if r.Overlaps(query) {
					want = append(want, i)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d query %d: got %d results want %d", trial, q, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: result mismatch at %d", trial, i)
				}
			}
		}
	}
}

func TestRTreeGrowsInHeight(t *testing.T) {
	tree := NewRTree(4)
	rng := rand.New(rand.NewSource(3))
	for i, r := range randomRects(rng, 500, 100) {
		tree.Insert(r, i)
	}
	if tree.Height() < 3 {
		t.Fatalf("500 items in fan-out-4 tree should be at least 3 levels, got %d", tree.Height())
	}
	// All 500 must be findable via a universal query.
	if got := tree.Search(NewRect(-10, -10, 200, 200)); len(got) != 500 {
		t.Fatalf("universal query found %d of 500", len(got))
	}
}

func TestRTreeEmptyAndSingle(t *testing.T) {
	tree := NewRTree(4)
	if got := tree.Search(NewRect(0, 0, 1, 1)); got != nil {
		t.Fatal("empty tree must return nil")
	}
	tree.Insert(NewRect(0, 0, 1, 1), 7)
	if got := tree.Search(NewRect(0.5, 0.5, 2, 2)); len(got) != 1 || got[0] != 7 {
		t.Fatalf("got %v", got)
	}
	if got := tree.Search(NewRect(5, 5, 6, 6)); len(got) != 0 {
		t.Fatal("miss must return empty")
	}
}

func TestRTreeDuplicateRects(t *testing.T) {
	tree := NewRTree(4)
	r := NewRect(1, 1, 2, 2)
	for i := 0; i < 20; i++ {
		tree.Insert(r, i)
	}
	if got := tree.Search(r); len(got) != 20 {
		t.Fatalf("duplicates: found %d of 20", len(got))
	}
}

func TestSweepMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		rs := randomRects(rng, 40, 30)
		ss := randomRects(rng, 50, 30)
		got := IntersectingPairs(rs, ss)
		seen := make(map[[2]int]bool, len(got))
		for _, p := range got {
			if seen[p] {
				t.Fatalf("trial %d: duplicate pair %v", trial, p)
			}
			seen[p] = true
		}
		count := 0
		for i, r := range rs {
			for j, s := range ss {
				if r.Overlaps(s) {
					count++
					if !seen[[2]int{i, j}] {
						t.Fatalf("trial %d: missing pair (%d,%d)", trial, i, j)
					}
				}
			}
		}
		if count != len(got) {
			t.Fatalf("trial %d: %d pairs want %d", trial, len(got), count)
		}
	}
}

func TestSweepTouchingRectangles(t *testing.T) {
	rs := []Rect{NewRect(0, 0, 1, 1)}
	ss := []Rect{NewRect(1, 1, 2, 2)} // corner touch
	if got := IntersectingPairs(rs, ss); len(got) != 1 {
		t.Fatalf("touching rectangles must pair, got %v", got)
	}
}

func TestRealizeSpiderJoinGraph(t *testing.T) {
	for n := 1; n <= 8; n++ {
		inst := RealizeSpider(n)
		if len(inst.R) != n+1 || len(inst.S) != n {
			t.Fatalf("n=%d: sizes %dx%d", n, len(inst.R), len(inst.S))
		}
		pairs := overlapPairs(inst.R, inst.S)
		if len(pairs) != 2*n {
			t.Fatalf("n=%d: %d pairs want 2n", n, len(pairs))
		}
		want := make(map[[2]int]bool)
		for i := 0; i < n; i++ {
			want[[2]int{0, i}] = true     // center overlaps middle i
			want[[2]int{1 + i, i}] = true // leaf i overlaps middle i
		}
		for _, p := range pairs {
			if !want[p] {
				t.Fatalf("n=%d: unexpected pair %v", n, p)
			}
		}
	}
}

func TestRealizeSpiderPolygonsJoinGraph(t *testing.T) {
	// Lemma 3.4 over actual polygons: the chamfered layout must realize
	// exactly the same join graph as the rectangle layout.
	for n := 1; n <= 8; n++ {
		inst := RealizeSpiderPolygons(n)
		pairs := overlapPairs(inst.R, inst.S)
		if len(pairs) != 2*n {
			t.Fatalf("n=%d: %d pairs want 2n", n, len(pairs))
		}
		want := make(map[[2]int]bool)
		for i := 0; i < n; i++ {
			want[[2]int{0, i}] = true
			want[[2]int{1 + i, i}] = true
		}
		for _, p := range pairs {
			if !want[p] {
				t.Fatalf("n=%d: unexpected polygon pair %v", n, p)
			}
		}
		// The polygons must be genuinely non-rectangular.
		for _, p := range inst.R {
			if len(p.Verts) != 8 {
				t.Fatalf("chamfered polygon has %d vertices", len(p.Verts))
			}
		}
	}
}

func TestChamferPreservesOverlapOnRandomRects(t *testing.T) {
	// Property: with chamfer depth well below every gap and overlap
	// depth, the polygon join graph equals the rectangle join graph.
	// Generate rects on an integer grid so depths are >= 1 > 4*0.1.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		mk := func() Rect {
			x, y := float64(rng.Intn(10)), float64(rng.Intn(10))
			return NewRect(x, y, x+float64(1+rng.Intn(4)), y+float64(1+rng.Intn(4)))
		}
		a, b := mk(), mk()
		// Skip boundary-touching pairs: chamfering legitimately changes
		// corner-touch cases, which integer coordinates make common.
		if a.Overlaps(b) != chamfer(a, 0.1).Overlaps(chamfer(b, 0.1)) {
			if touchesOnly(a, b) {
				continue
			}
			t.Fatalf("trial %d: chamfer changed overlap of %v and %v", trial, a, b)
		}
	}
}

func touchesOnly(a, b Rect) bool {
	return a.Overlaps(b) &&
		(a.MinX == b.MaxX || b.MinX == a.MaxX || a.MinY == b.MaxY || b.MinY == a.MaxY)
}

func TestRealizeSpiderRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RealizeSpider(0) must panic")
		}
	}()
	RealizeSpider(0)
}

func TestRTreeRejectsInvalidRect(t *testing.T) {
	tree := NewRTree(4)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid rect must panic")
		}
	}()
	tree.Insert(Rect{MinX: 2, MaxX: 1}, 0)
}

// rectPolygon converts a rectangle into the equivalent convex polygon.
func rectPolygon(r Rect) Polygon {
	return Polygon{Verts: []Point{
		{r.MinX, r.MinY}, {r.MaxX, r.MinY}, {r.MaxX, r.MaxY}, {r.MinX, r.MaxY},
	}}
}

// overlapPairs evaluates the overlap predicate over all pairs: the
// reference the realizations are checked against.
func overlapPairs[T interface{ Overlaps(T) bool }](r, s []T) [][2]int {
	var out [][2]int
	for i, a := range r {
		for j, b := range s {
			if a.Overlaps(b) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}
