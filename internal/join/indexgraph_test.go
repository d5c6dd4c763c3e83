package join

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"joinpebble/internal/graph"
	"joinpebble/internal/sets"
	"joinpebble/internal/spatial"
	"joinpebble/internal/workload"
)

// The index-join builders must return exactly the graph the nested loop
// builds: the same edges in the same order, left-major with right
// indices ascending, so that every scheme built on them stays the same.

// sameGraph fails t unless got has want's side sizes and want's edges in
// want's order, and the same Neighbors, IncidentEdges and
// IncidentEdgesByNeighbor span at every vertex and the same components.
func sameGraph(t *testing.T, what string, got, want *graph.Bipartite) {
	t.Helper()
	if got.NLeft() != want.NLeft() || got.NRight() != want.NRight() || got.M() != want.M() {
		t.Fatalf("%s: %dx%d with %d edges, nested loop %dx%d with %d",
			what, got.NLeft(), got.NRight(), got.M(), want.NLeft(), want.NRight(), want.M())
	}
	for i := 0; i < want.M(); i++ {
		gl, gr := got.EdgeAt(i)
		wl, wr := want.EdgeAt(i)
		if gl != wl || gr != wr {
			t.Fatalf("%s: edge %d is %d-%d, nested loop has %d-%d", what, i, gl, gr, wl, wr)
		}
	}
	g, w := got.Graph(), want.Graph()
	for v := 0; v < w.N(); v++ {
		if !slices.Equal(g.Neighbors(v), w.Neighbors(v)) ||
			!slices.Equal(g.IncidentEdges(v), w.IncidentEdges(v)) ||
			!slices.Equal(g.IncidentEdgesByNeighbor(v), w.IncidentEdgesByNeighbor(v)) {
			t.Fatalf("%s: spans of vertex %d differ from the nested loop's", what, v)
		}
	}
	if g.ComponentCount() != w.ComponentCount() {
		t.Fatalf("%s: %d components, nested loop %d", what, g.ComponentCount(), w.ComponentCount())
	}
	for ci := range w.ComponentCount() {
		gv, ge := g.Component(ci)
		wv, we := w.Component(ci)
		if !slices.Equal(gv, wv) || !slices.Equal(ge, we) {
			t.Fatalf("%s: component %d is %v %v, nested loop %v %v", what, ci, gv, ge, wv, we)
		}
	}
}

func checkEqui(t *testing.T, what string, ls, rs []int64) {
	t.Helper()
	sameGraph(t, what, EquiGraph(ls, rs), GraphFromPairs(len(ls), len(rs), NestedLoop(ls, rs, eqInt)))
}

func checkContainment(t *testing.T, what string, ls, rs []sets.Set) {
	t.Helper()
	sameGraph(t, what, ContainmentGraph(ls, rs), GraphFromPairs(len(ls), len(rs), NestedLoop(ls, rs, Contains)))
}

func checkOverlap(t *testing.T, what string, ls, rs []spatial.Rect) {
	t.Helper()
	sameGraph(t, what, OverlapGraph(ls, rs), GraphFromPairs(len(ls), len(rs), NestedLoop(ls, rs, Overlaps)))
}

// TestIndexJoinGraphsMatchNestedLoop runs both builders on the workload
// generators: the serve instance builder's shapes at the benchmark's
// sizes (64–160 tuples a side, spatial skew 3), the E16 shapes, and
// smaller and uncorrelated or unclustered variants, over many seeds.
func TestIndexJoinGraphsMatchNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for seed := int64(1); seed <= 150; seed++ {
		nl, nr := 64+rng.Intn(97), 64+rng.Intn(97)
		if seed%5 == 0 {
			nl, nr = 1+rng.Intn(20), 1+rng.Intn(20)
		}
		for _, w := range []workload.SetContainment{
			{LeftSize: nl, RightSize: nr, Universe: 64, LeftMax: 3, RightMax: 12, Correlated: true},
			{LeftSize: nl, RightSize: nr, Universe: 400, LeftMax: 3, RightMax: 9, Correlated: true},
			{LeftSize: nl, RightSize: nr, Universe: 8, LeftMax: 4, RightMax: 8},
		} {
			l, r := w.Generate(seed)
			checkContainment(t, "containment", l.Sets(), r.Sets())
		}
		for _, w := range []workload.Spatial{
			{LeftSize: nl, RightSize: nr, Span: 100, MaxExtent: 8, Clusters: 3},
			{LeftSize: nl, RightSize: nr, Span: 100, MaxExtent: 6, Clusters: 4},
			{LeftSize: nl, RightSize: nr, Span: 100, MaxExtent: 8},
			{LeftSize: nl, RightSize: nr, Span: 10, MaxExtent: 8, Clusters: 1},
		} {
			l, r := w.Generate(seed)
			checkOverlap(t, "spatial", l.Rects(), r.Rects())
		}
	}
}

func TestContainmentGraphEdgeCases(t *testing.T) {
	top := uint32(math.MaxUint32)
	cases := []struct {
		name   string
		ls, rs []sets.Set
	}{
		{"no tuples", nil, nil},
		{"no left tuples", nil, []sets.Set{sets.New(1)}},
		{"no right tuples", []sets.Set{sets.New(1), sets.New()}, nil},
		{"empty left sets", []sets.Set{sets.New(), sets.New(2), sets.New()}, []sets.Set{sets.New(1, 2), sets.New(), sets.New(2)}},
		{"only empty sets", []sets.Set{sets.New(), sets.New()}, []sets.Set{sets.New(), sets.New()}},
		{"element no right set holds", []sets.Set{sets.New(5), sets.New(1, 5), sets.New(1)}, []sets.Set{sets.New(1, 2), sets.New(1, 3)}},
		{"elements near 2^32-1",
			[]sets.Set{sets.New(top), sets.New(top-1, top), sets.New(0, top), sets.New(top - 2)},
			[]sets.Set{sets.New(top), sets.New(0, top-1, top), sets.New(top - 1), sets.New(0, 1, top)}},
		{"duplicate sets", []sets.Set{sets.New(3, 4), sets.New(3, 4)}, []sets.Set{sets.New(3, 4), sets.New(3, 4, 5), sets.New(3, 4)}},
		{"long posting lists", manySets(60, 1, 2, 3), append(manySets(40, 1, 2, 3), manySets(40, 1, 3)...)},
	}
	for _, c := range cases {
		checkContainment(t, c.name, c.ls, c.rs)
	}
}

// manySets returns n copies of the set of elems.
func manySets(n int, elems ...uint32) []sets.Set {
	out := make([]sets.Set, n)
	for i := range out {
		out[i] = sets.New(elems...)
	}
	return out
}

func TestOverlapGraphEdgeCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	unit := spatial.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	cases := []struct {
		name   string
		ls, rs []spatial.Rect
	}{
		{"no tuples", nil, nil},
		{"no left tuples", nil, []spatial.Rect{unit}},
		{"no right tuples", []spatial.Rect{unit}, nil},
		{"duplicates", []spatial.Rect{unit, unit, unit}, []spatial.Rect{unit, unit}},
		{"touching", []spatial.Rect{unit, {MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}}, []spatial.Rect{
			{MinX: 1, MinY: 0, MaxX: 2, MaxY: 1}, // shares an edge with unit
			{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3}, // shares a corner with the second
			{MinX: 0, MinY: 1, MaxX: 0, MaxY: 2}, // degenerate, on unit's top edge
			{MinX: 1.5, MinY: -1, MaxX: 1.5, MaxY: -1},
		}},
		{"same MinX", []spatial.Rect{{MinX: 0, MinY: 5, MaxX: 1, MaxY: 6}, unit}, []spatial.Rect{unit, {MinX: 0, MinY: 5.5, MaxX: 0, MaxY: 9}}},
		{"inverted", []spatial.Rect{
			{MinX: 2, MinY: 0, MaxX: 1, MaxY: 1}, // MinX > MaxX
			{MinX: 0, MinY: 2, MaxX: 1, MaxY: 1}, // MinY > MaxY
			{MinX: 3, MinY: 3, MaxX: -3, MaxY: -3},
		}, []spatial.Rect{unit, {MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}, {MinX: 1.5, MinY: 0, MaxX: 1.2, MaxY: 1}}},
		{"infinite", []spatial.Rect{
			{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf},
			{MinX: -inf, MinY: 0, MaxX: -inf, MaxY: 1},
			{MinX: inf, MinY: 0, MaxX: inf, MaxY: 1},
			{MinX: 0, MinY: 0, MaxX: inf, MaxY: 0},
		}, []spatial.Rect{unit, {MinX: -inf, MinY: -inf, MaxX: -inf, MaxY: -inf}, {MinX: 5, MinY: -inf, MaxX: inf, MaxY: inf}, {MinX: inf, MinY: inf, MaxX: -inf, MaxY: -inf}}},
		{"NaN", []spatial.Rect{
			{MinX: nan, MinY: 0, MaxX: 1, MaxY: 1},
			{MinX: 0, MinY: nan, MaxX: 1, MaxY: 1},
			unit,
			{MinX: 0, MinY: 0, MaxX: nan, MaxY: 1},
			{MinX: 0, MinY: 0, MaxX: 1, MaxY: nan},
			{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf},
		}, []spatial.Rect{{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan}, unit, {MinX: 0.5, MinY: nan, MaxX: 0.7, MaxY: 0.7}, unit}},
	}
	for _, c := range cases {
		checkOverlap(t, c.name, c.ls, c.rs)
	}
}

// TestOverlapGraphSpecialCoordinates draws rectangle literals, inverted
// ones included, from a coordinate pool with repeats, ±Inf and NaN.
func TestOverlapGraphSpecialCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 3000; trial++ {
		ls := make([]spatial.Rect, rng.Intn(12))
		for i := range ls {
			ls[i] = rectFrom(func() byte { return byte(rng.Intn(256)) })
		}
		rs := make([]spatial.Rect, rng.Intn(12))
		for i := range rs {
			rs[i] = rectFrom(func() byte { return byte(rng.Intn(256)) })
		}
		checkOverlap(t, "special coordinates", ls, rs)
	}
}

// coordPool holds the coordinates rectFrom draws: repeats, so that
// rectangles touch and coincide, infinities and NaN.
var coordPool = []float64{math.NaN(), math.Inf(-1), math.Inf(1), -1, 0, 0, 0.5, 1, 1, 1.5, 2, 2, 3, 4, 7, 1e308}

// rectFrom reads one rectangle literal off next: each coordinate from
// coordPool, so Min > Max happens as often as not.
func rectFrom(next func() byte) spatial.Rect {
	c := func() float64 { return coordPool[int(next())%len(coordPool)] }
	return spatial.Rect{MinX: c(), MinY: c(), MaxX: c(), MaxY: c()}
}

// setFrom reads one set of up to four elements off next. Byte values
// from 250 up stand for the elements 2³²−6 … 2³²−1.
func setFrom(next func() byte) sets.Set {
	es := make([]uint32, next()%5)
	for i := range es {
		e := uint32(next())
		if e >= 250 {
			e = math.MaxUint32 - (255 - e)
		} else {
			e %= 12
		}
		es[i] = e
	}
	return sets.New(es...)
}

// intFrom reads one join value off next: a small value, so that values
// repeat, or, for byte values from 244 up, one of the six values from
// −2⁶³ and the six up to 2⁶³−1.
func intFrom(next func() byte) int64 {
	switch b := next(); {
	case b >= 250:
		return math.MaxInt64 - int64(255-b)
	case b >= 244:
		return math.MinInt64 + int64(b-244)
	default:
		return int64(b % 5)
	}
}

// FuzzIndexJoinGraphs checks the three index-join builders against the
// nested loop on relations read from the input: sets of small elements
// and elements near 2³²−1, rectangle literals with repeated, inverted,
// infinite and NaN coordinates, and join values from a small domain and
// near ±2⁶³. The graphs must be identical, edge for edge, span for span
// and component for component. On the same rectangles SweepJoin must
// emit the replaced event sweep's pairs in its order, and, when every
// rectangle is valid, RTreeJoin the nested loop's.
func FuzzIndexJoinGraphs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 1, 5, 2, 5, 6, 3, 1, 2, 3, 1, 255})
	f.Add([]byte{5, 5, 4, 0, 1, 2, 3, 4, 7, 8, 9, 10, 11, 2, 250, 255, 0, 0, 1, 0, 2, 3, 4})
	f.Add([]byte("\x06\x07\x00\x01\x02\x03\x0f\x0e\x0d\x0c\x06\x07\x00\x01\x02\x03\x0f\x0e\x0d\x0c\x06\x07\x00\x01\x02\x03\x0f\x0e\x0d\x0c"))
	f.Add([]byte{2, 2, 0, 0, 0, 0, 3, 4, 7, 13, 6, 6, 12, 12, 7, 3, 10, 7, 13, 13, 15, 14}) // valid rectangles, one touching pair
	// Empty sets and NaN rectangles (five zero bytes a tuple), then join
	// values: repeating across both sides, and near ±2⁶³.
	valuesOnly := func(nl, nr byte, values ...byte) []byte {
		return append(append([]byte{nl, nr}, make([]byte, 5*int(nl+nr))...), values...)
	}
	f.Add(valuesOnly(6, 5, 1, 2, 1, 7, 3, 2, 2, 1, 4, 2, 9))
	f.Add(valuesOnly(4, 4, 255, 244, 250, 255, 255, 245, 244, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		k := 0
		next := func() byte {
			if k >= len(data) {
				return 0
			}
			k++
			return data[k-1]
		}
		nl, nr := int(next()%16), int(next()%16)
		ls, rs := make([]sets.Set, nl), make([]sets.Set, nr)
		for i := range ls {
			ls[i] = setFrom(next)
		}
		for j := range rs {
			rs[j] = setFrom(next)
		}
		checkContainment(t, "containment", ls, rs)
		lr, rr := make([]spatial.Rect, nl), make([]spatial.Rect, nr)
		for i := range lr {
			lr[i] = rectFrom(next)
		}
		for j := range rr {
			rr[j] = rectFrom(next)
		}
		checkOverlap(t, "spatial", lr, rr)
		checkSweep(t, "sweep", lr, rr)
		if allValid(lr) && allValid(rr) {
			checkRTree(t, "R-tree", lr, rr)
		}
		li, ri := make([]int64, nl), make([]int64, nr)
		for i := range li {
			li[i] = intFrom(next)
		}
		for j := range ri {
			ri[j] = intFrom(next)
		}
		checkEqui(t, "equijoin", li, ri)
	})
}

func allValid(rects []spatial.Rect) bool {
	for _, r := range rects {
		if !r.Valid() {
			return false
		}
	}
	return true
}
