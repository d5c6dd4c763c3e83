package spatial

// OverlapInstance is an instance of the spatial-overlap join problem:
// pairs (r, s) join iff the rectangles overlap.
type OverlapInstance struct {
	R []Rect
	S []Rect
}

// RealizeSpider implements Lemma 3.4: a family of rectangle-overlap
// instances whose join graphs are the G_n graphs of Figure 1a (the
// Theorem 3.3 worst case), proving spatial joins are as hard as the
// general bound. Layout, with the R side holding the center and the
// leaves and the S side the middles:
//
//	center:   a tall slab at x ∈ [0,1] covering every middle strip
//	middle i: a thin horizontal strip y ∈ [2i, 2i+1] spanning x ∈ [0,10]
//	leaf i:   a small box at x ∈ [9,10] inside middle i's strip only
//
// Middles overlap the center (all i) and exactly their own leaf; leaves
// are clear of the center (x ranges [9,10] vs [0,1]) and of every other
// strip (disjoint y ranges). Overlaps within one relation are irrelevant
// to the bipartite join graph.
func RealizeSpider(n int) *OverlapInstance {
	if n < 1 {
		panic("spatial: RealizeSpider needs n >= 1")
	}
	inst := &OverlapInstance{
		R: make([]Rect, 0, n+1),
		S: make([]Rect, 0, n),
	}
	inst.R = append(inst.R, NewRect(0, 0, 1, float64(2*n))) // center, R index 0
	for i := 0; i < n; i++ {
		y0 := float64(2 * i)
		inst.S = append(inst.S, NewRect(0, y0, 10, y0+1))   // middle i
		inst.R = append(inst.R, NewRect(9, y0, 10, y0+0.5)) // leaf i, R index 1+i
	}
	return inst
}

// PolygonOverlapInstance is a spatial-overlap instance over convex
// polygons — the domain Lemma 3.4 is actually stated for (rectangles are
// the special case).
type PolygonOverlapInstance struct {
	R []Polygon
	S []Polygon
}

// RealizeSpiderPolygons realizes G_n with genuinely non-rectangular
// convex polygons: the rectangle layout of RealizeSpider with every
// corner chamfered into an octagon. All overlap depths in the rectangle
// layout are at least 0.5 and all separations at least 1, so a chamfer
// of 0.1 preserves the join graph exactly — verified in tests against
// the SAT overlap predicate.
func RealizeSpiderPolygons(n int) *PolygonOverlapInstance {
	rects := RealizeSpider(n)
	out := &PolygonOverlapInstance{
		R: make([]Polygon, len(rects.R)),
		S: make([]Polygon, len(rects.S)),
	}
	for i, r := range rects.R {
		out.R[i] = chamfer(r, 0.1)
	}
	for j, s := range rects.S {
		out.S[j] = chamfer(s, 0.1)
	}
	return out
}

// chamfer cuts each rectangle corner by d, producing a convex octagon
// (CCW). d must be at most half the shorter side.
func chamfer(r Rect, d float64) Polygon {
	if w, h := r.MaxX-r.MinX, r.MaxY-r.MinY; 2*d > w || 2*d > h {
		// Too small to chamfer safely; shrink the cut.
		m := w
		if h < m {
			m = h
		}
		d = m / 4
	}
	p, err := NewPolygon(
		Point{r.MinX + d, r.MinY},
		Point{r.MaxX - d, r.MinY},
		Point{r.MaxX, r.MinY + d},
		Point{r.MaxX, r.MaxY - d},
		Point{r.MaxX - d, r.MaxY},
		Point{r.MinX + d, r.MaxY},
		Point{r.MinX, r.MaxY - d},
		Point{r.MinX, r.MinY + d},
	)
	if err != nil {
		panic("spatial: chamfer produced invalid polygon: " + err.Error())
	}
	return p
}
