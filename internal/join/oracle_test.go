package join

import (
	"math/rand"
	"sort"
	"testing"

	"joinpebble/internal/obs"
	"joinpebble/internal/spatial"
)

// The executable joins must emit the same pairs in the same order as the
// implementations they replaced, because E9 and E15 score those orders.
// The replaced code is kept below as the oracle.

// samePairs fails t unless got is want, pair for pair.
func samePairs(t *testing.T, what string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, oracle %d", what, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: pair %d is %v, oracle %v", what, k, got[k], want[k])
		}
	}
}

// eventSweepOracle is the event sweep SweepJoin replaced: each side's
// active set is a map whose matches are sorted at every start event.
func eventSweepOracle(rs, ss []spatial.Rect) []Pair {
	type event struct {
		x     float64
		start bool
		side  int // 0 = R, 1 = S
		idx   int
	}
	events := make([]event, 0, 2*(len(rs)+len(ss)))
	for i, r := range rs {
		events = append(events, event{x: r.MinX, start: true, side: 0, idx: i})
		events = append(events, event{x: r.MaxX, start: false, side: 0, idx: i})
	}
	for j, s := range ss {
		events = append(events, event{x: s.MinX, start: true, side: 1, idx: j})
		events = append(events, event{x: s.MaxX, start: false, side: 1, idx: j})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].x != events[b].x {
			return events[a].x < events[b].x
		}
		if events[a].start != events[b].start {
			return events[a].start
		}
		if events[a].side != events[b].side {
			return events[a].side < events[b].side
		}
		return events[a].idx < events[b].idx
	})
	yOverlap := func(a, b spatial.Rect) bool { return a.MinY <= b.MaxY && b.MinY <= a.MaxY }
	activeR := make(map[int]struct{})
	activeS := make(map[int]struct{})
	var out []Pair
	for _, e := range events {
		if !e.start {
			if e.side == 0 {
				delete(activeR, e.idx)
			} else {
				delete(activeS, e.idx)
			}
			continue
		}
		if e.side == 0 {
			r := rs[e.idx]
			matches := make([]int, 0, len(activeS))
			for j := range activeS {
				if yOverlap(r, ss[j]) {
					matches = append(matches, j)
				}
			}
			sort.Ints(matches)
			for _, j := range matches {
				out = append(out, Pair{L: e.idx, R: j})
			}
			activeR[e.idx] = struct{}{}
		} else {
			s := ss[e.idx]
			matches := make([]int, 0, len(activeR))
			for i := range activeR {
				if yOverlap(rs[i], s) {
					matches = append(matches, i)
				}
			}
			sort.Ints(matches)
			for _, i := range matches {
				out = append(out, Pair{L: i, R: e.idx})
			}
			activeS[e.idx] = struct{}{}
		}
	}
	return out
}

// sortMergeOracle is SortMerge before the merge phase was shared (rewind
// when zigzag is false, SortMergeZigzag when true).
func sortMergeOracle(ls, rs []int64, zigzag bool) []Pair {
	li, ri := sortedIndex(ls), sortedIndex(rs)
	var out []Pair
	i, j := 0, 0
	for i < len(li) && j < len(ri) {
		lv, rv := ls[li[i]], rs[ri[j]]
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			iEnd := i
			for iEnd < len(li) && ls[li[iEnd]] == lv {
				iEnd++
			}
			jEnd := j
			for jEnd < len(ri) && rs[ri[jEnd]] == rv {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				if !zigzag || (a-i)%2 == 0 {
					for b := j; b < jEnd; b++ {
						out = append(out, Pair{L: li[a], R: ri[b]})
					}
				} else {
					for b := jEnd - 1; b >= j; b-- {
						out = append(out, Pair{L: li[a], R: ri[b]})
					}
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return out
}

// checkSweep compares SweepJoin with the event sweep it replaced.
func checkSweep(t *testing.T, what string, ls, rs []spatial.Rect) {
	t.Helper()
	samePairs(t, what, SweepJoin(ls, rs), eventSweepOracle(ls, rs))
}

// checkRTree compares RTreeJoin with the nested loop; both emit
// left-major with right indices ascending.
func checkRTree(t *testing.T, what string, ls, rs []spatial.Rect) {
	t.Helper()
	samePairs(t, what, RTreeJoin(ls, rs), NestedLoop(ls, rs, Overlaps))
}

// gridRects draws rectangles with small integer corners and extents
// from 0 to 2, so touching, duplicate and zero-area rectangles are
// common.
func gridRects(rng *rand.Rand, n int) []spatial.Rect {
	out := make([]spatial.Rect, n)
	for i := range out {
		x, y := float64(rng.Intn(8)), float64(rng.Intn(8))
		out[i] = spatial.NewRect(x, y, x+float64(rng.Intn(3)), y+float64(rng.Intn(3)))
	}
	return out
}

// TestSweepJoinMatchesEventSweep runs both sweeps on rectangle literals
// with repeated, inverted, infinite and NaN coordinates, on grid
// rectangles that touch, repeat and have zero area, and on uniform
// random rectangles.
func TestSweepJoinMatchesEventSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	next := func() byte { return byte(rng.Intn(256)) }
	for trial := 0; trial < 3000; trial++ {
		ls := make([]spatial.Rect, rng.Intn(12))
		for i := range ls {
			ls[i] = rectFrom(next)
		}
		rs := make([]spatial.Rect, rng.Intn(12))
		for j := range rs {
			rs[j] = rectFrom(next)
		}
		checkSweep(t, "special coordinates", ls, rs)
	}
	for trial := 0; trial < 300; trial++ {
		checkSweep(t, "grid", gridRects(rng, rng.Intn(40)), gridRects(rng, rng.Intn(40)))
		checkSweep(t, "uniform", randRects(rng, rng.Intn(60), 40), randRects(rng, rng.Intn(60), 40))
	}
}

func TestRTreeJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		checkRTree(t, "grid", gridRects(rng, rng.Intn(40)), gridRects(rng, rng.Intn(120)))
		checkRTree(t, "uniform", randRects(rng, rng.Intn(60), 40), randRects(rng, rng.Intn(600), 80))
	}
	checkRTree(t, "no tuples", nil, nil)
	checkRTree(t, "no right tuples", randRects(rng, 3, 10), nil)
}

func TestSortMergeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 500; trial++ {
		domain := 1 + rng.Int63n(12)
		ls, rs := randInts(rng, rng.Intn(40), domain), randInts(rng, rng.Intn(40), domain)
		samePairs(t, "rewind", SortMerge(ls, rs), sortMergeOracle(ls, rs, false))
		samePairs(t, "zigzag", SortMergeZigzag(ls, rs), sortMergeOracle(ls, rs, true))
	}
	for _, c := range [][2][]int64{{nil, nil}, {nil, {1, 1}}, {{2}, nil}, {{}, {}}} {
		samePairs(t, "empty rewind", SortMerge(c[0], c[1]), nil)
		samePairs(t, "empty zigzag", SortMergeZigzag(c[0], c[1]), nil)
	}
}

// TestSweepJoinCountsYTests pins join/sweep/tuples_compared to the
// y-overlap tests the sweep makes: the left rectangle meets both right
// ones on x, and only the first on y.
func TestSweepJoinCountsYTests(t *testing.T) {
	compared := obs.Default.Counter("join/sweep/tuples_compared")
	emitted := obs.Default.Counter("join/sweep/pairs_emitted")
	c0, e0 := compared.Value(), emitted.Value()
	ls := []spatial.Rect{spatial.NewRect(0, 0, 4, 1)}
	rs := []spatial.Rect{spatial.NewRect(1, 0, 2, 1), spatial.NewRect(3, 5, 5, 6)}
	if got := SweepJoin(ls, rs); len(got) != 1 {
		t.Fatalf("pairs %v, want one", got)
	}
	if c, e := compared.Value()-c0, emitted.Value()-e0; c != 2 || e != 1 {
		t.Fatalf("tuples_compared +%d, pairs_emitted +%d; want +2 and +1", c, e)
	}
}
