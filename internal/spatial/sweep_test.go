package spatial_test

import (
	"math/rand"
	"testing"

	"joinpebble/internal/join"
	"joinpebble/internal/spatial"
)

// The plane sweep over rectangles lives in join.SweepJoin, which imports
// this package, so its checks against Rect.Overlaps sit in the external
// test package.

func TestSweepMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rects := func(n int) []spatial.Rect {
		out := make([]spatial.Rect, n)
		for i := range out {
			x, y := rng.Float64()*30, rng.Float64()*30
			out[i] = spatial.NewRect(x, y, x+rng.Float64()*5, y+rng.Float64()*5)
		}
		return out
	}
	for trial := 0; trial < 15; trial++ {
		rs, ss := rects(40), rects(50)
		got := join.SweepJoin(rs, ss)
		seen := make(map[join.Pair]bool, len(got))
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
					if !seen[join.Pair{L: i, R: j}] {
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
	rs := []spatial.Rect{spatial.NewRect(0, 0, 1, 1)}
	ss := []spatial.Rect{spatial.NewRect(1, 1, 2, 2)} // corner touch
	if got := join.SweepJoin(rs, ss); len(got) != 1 {
		t.Fatalf("touching rectangles must pair, got %v", got)
	}
}
