package join

import (
	"cmp"
	"math"
	"slices"

	"joinpebble/internal/graph"
	"joinpebble/internal/spatial"
)

var (
	mRTreeJoin = newAlgMetrics("join/rtree/tuples_compared", "join/rtree/pairs_emitted")
	mSweepJoin = newAlgMetrics("join/sweep/tuples_compared", "join/sweep/pairs_emitted")
	mPolygonNL = newAlgMetrics("join/polygon_nested_loop/tuples_compared", "join/polygon_nested_loop/pairs_emitted")
)

// RTreeJoin is the index-nested-loop spatial join: bulk-load an R-tree
// on the right rectangles, probe it with each left rectangle. Emission is
// left-major with right matches in ascending index order.
func RTreeJoin(ls, rs []spatial.Rect) []Pair {
	tree := spatial.BuildRTree(rs)
	var out []Pair
	for i, l := range ls {
		for _, j := range tree.Search(l) {
			out = append(out, Pair{L: i, R: j})
		}
	}
	mRTreeJoin.flush(int64(len(ls)), int64(len(out))) // one tree probe per left rect
	return out
}

// SweepJoin is the plane-sweep spatial join. The rectangles' x-interval
// ends form one event stream, ordered by x, then kind, then index;
// starts precede ends at equal x so closed rectangles that touch still
// pair. A starting rectangle is tested on y against the other side's
// active rectangles in ascending index order and pairs with each one it
// overlaps, so pairs come out as the sweep discovers them — the emission
// order studied in the E15 experiment.
func SweepJoin(ls, rs []spatial.Rect) []Pair {
	// An event is one end of a rectangle's x-interval. Bit 0 of kind
	// marks a right rectangle and bit 1 an end, so at one x the left
	// starts come first, then the right starts, the left ends and the
	// right ends.
	type event struct {
		x    float64
		kind uint8
		idx  int
	}
	events := make([]event, 0, 2*(len(ls)+len(rs)))
	for i, r := range ls {
		events = append(events, event{x: r.MinX, idx: i}, event{x: r.MaxX, kind: 2, idx: i})
	}
	for j, r := range rs {
		events = append(events, event{x: r.MinX, kind: 1, idx: j}, event{x: r.MaxX, kind: 3, idx: j})
	}
	slices.SortFunc(events, func(a, b event) int {
		if a.x < b.x {
			return -1
		}
		if a.x != b.x {
			// Greater, or NaN: a NaN event is neither before nor after
			// any other (cmp.Compare would sort it first).
			return 1
		}
		return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.idx, b.idx))
	})

	var active [2][]int // each side's started, unended rectangles, ascending
	var out []Pair
	var compared int64 // y-overlap tests
	for _, e := range events {
		side := e.kind & 1
		k, found := slices.BinarySearch(active[side], e.idx)
		if e.kind&2 != 0 {
			// An end before its start (an inverted rectangle) removes
			// nothing, and that rectangle then stays active.
			if found {
				active[side] = slices.Delete(active[side], k, k+1)
			}
			continue
		}
		for _, o := range active[side^1] {
			p := Pair{L: e.idx, R: o}
			if side == 1 {
				p = Pair{L: o, R: e.idx}
			}
			l, r := ls[p.L], rs[p.R]
			compared++
			if l.MinY <= r.MaxY && r.MinY <= l.MaxY {
				out = append(out, p)
			}
		}
		active[side] = slices.Insert(active[side], k, e.idx)
	}
	mSweepJoin.flush(compared, int64(len(out)))
	return out
}

// OverlapGraph builds the rectangle-overlap join graph (§3.3) by a
// forward plane sweep: the graph NestedLoop's pairs under Overlaps make,
// edge for edge and in the same order. Both sides are sorted by MinX.
// The side whose next rectangle starts first (the left on a tie) scans
// the other side's unvisited rectangles until one starts past its MaxX,
// so each overlapping pair is found once, by whichever of its two
// rectangles starts first. The scan applies the full Rect.Overlaps, so
// inverted and infinite rectangles pair as the predicate says. The
// SweepJoin event sweep stays as it is, because E15 measures its
// emission order.
func OverlapGraph(ls, rs []spatial.Rect) *graph.Bipartite {
	lx, rx := byMinX(ls), byMinX(rs)
	var found []graph.Edge
	for a, b := 0, 0; a < len(lx) && b < len(rx); {
		if lx[a].minX <= rx[b].minX {
			l := ls[lx[a].id]
			for _, r := range rx[b:] {
				if r.minX > l.MaxX {
					break
				}
				if l.Overlaps(rs[r.id]) {
					found = append(found, graph.Edge{U: lx[a].id, V: r.id})
				}
			}
			a++
		} else {
			r := rs[rx[b].id]
			for _, l := range lx[a:] {
				if l.minX > r.MaxX {
					break
				}
				if ls[l.id].Overlaps(r) {
					found = append(found, graph.Edge{U: l.id, V: rx[b].id})
				}
			}
			b++
		}
	}
	return graph.NewBipartite(len(ls), len(rs), leftMajor(found, len(ls), len(rs)))
}

// leftMajor sorts edges by left index, then right, by two stable
// counting passes: by right index into a copy, then by left index back.
func leftMajor(edges []graph.Edge, nLeft, nRight int) []graph.Edge {
	byRight := make([]graph.Edge, len(edges))
	next := make([]int, max(nLeft, nRight)+1)
	for _, e := range edges {
		next[e.V+1]++
	}
	for k := 1; k < nRight; k++ {
		next[k] += next[k-1]
	}
	for _, e := range edges {
		byRight[next[e.V]] = e
		next[e.V]++
	}
	clear(next)
	for _, e := range byRight {
		next[e.U+1]++
	}
	for k := 1; k < nLeft; k++ {
		next[k] += next[k-1]
	}
	for _, e := range byRight {
		edges[next[e.U]] = e
		next[e.U]++
	}
	return edges
}

// sweepKey is a rectangle's MinX and its index in its relation.
type sweepKey struct {
	minX float64
	id   int
}

// byMinX returns the sweep keys of the rectangles, sorted by MinX. A
// rectangle with a NaN coordinate overlaps nothing, and NaN breaks the
// sort, so it gets no key.
func byMinX(rects []spatial.Rect) []sweepKey {
	keys := make([]sweepKey, 0, len(rects))
	for i, r := range rects {
		if !math.IsNaN(r.MinX) && !math.IsNaN(r.MinY) && !math.IsNaN(r.MaxX) && !math.IsNaN(r.MaxY) {
			keys = append(keys, sweepKey{minX: r.MinX, id: i})
		}
	}
	slices.SortFunc(keys, func(a, b sweepKey) int { return cmp.Compare(a.minX, b.minX) })
	return keys
}

// PolygonNestedLoop joins convex polygons by the SAT overlap test,
// with an optional bounding-box prefilter (the standard filter/refine
// split in spatial query processing).
func PolygonNestedLoop(ls, rs []spatial.Polygon, prefilter bool) []Pair {
	var lb, rb []spatial.Rect
	if prefilter {
		lb = make([]spatial.Rect, len(ls))
		for i, p := range ls {
			lb[i] = p.Bounds()
		}
		rb = make([]spatial.Rect, len(rs))
		for j, p := range rs {
			rb[j] = p.Bounds()
		}
	}
	var out []Pair
	var compared int64 // SAT tests the bounding-box prefilter let through
	for i, l := range ls {
		for j, r := range rs {
			if prefilter && !lb[i].Overlaps(rb[j]) {
				continue
			}
			compared++
			if l.Overlaps(r) {
				out = append(out, Pair{L: i, R: j})
			}
		}
	}
	mPolygonNL.flush(compared, int64(len(out)))
	return out
}
