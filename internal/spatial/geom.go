// Package spatial implements the spatial attribute domain of §3.3:
// axis-aligned rectangles and convex polygons with overlap predicates, a
// bulk-loaded R-tree as the index of the join layer's index-nested-loop
// spatial join, and the Lemma 3.4 construction realizing the worst-case
// G_n join graphs as rectangle-overlap instances.
package spatial

import (
	"fmt"
	"math"
)

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Rect is a closed axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points in either
// order.
func NewRect(x1, y1, x2, y2 float64) Rect {
	return Rect{
		MinX: math.Min(x1, x2), MinY: math.Min(y1, y2),
		MaxX: math.Max(x1, x2), MaxY: math.Max(y1, y2),
	}
}

// Valid reports whether r is non-degenerate (Min <= Max on both axes and
// all coordinates finite).
func (r Rect) Valid() bool {
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY &&
		!math.IsNaN(r.MinX) && !math.IsInf(r.MinX, 0) &&
		!math.IsNaN(r.MinY) && !math.IsInf(r.MinY, 0) &&
		!math.IsNaN(r.MaxX) && !math.IsInf(r.MaxX, 0) &&
		!math.IsNaN(r.MaxY) && !math.IsInf(r.MaxY, 0)
}

// Overlaps reports whether r and s intersect (closed-rectangle semantics:
// shared boundary counts as overlap — the polygon-overlap predicate of
// §3.3).
func (r Rect) Overlaps(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Contains reports whether r fully contains s.
func (r Rect) Contains(s Rect) bool {
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX &&
		r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// Union returns the bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, s.MinX), MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX), MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Polygon is a convex polygon given by its vertices in counter-clockwise
// order. The spatial-overlap join of §3.3 is stated for polygons; convex
// polygons with a separating-axis test cover the workloads the cited
// spatial-join literature evaluates (most systems first join on bounding
// boxes anyway).
type Polygon struct {
	Verts []Point
}

// NewPolygon validates convexity and counter-clockwise orientation.
func NewPolygon(verts ...Point) (Polygon, error) {
	if len(verts) < 3 {
		return Polygon{}, fmt.Errorf("spatial: polygon needs >= 3 vertices, got %d", len(verts))
	}
	n := len(verts)
	for i := 0; i < n; i++ {
		a, b, c := verts[i], verts[(i+1)%n], verts[(i+2)%n]
		if cross(a, b, c) < 0 {
			return Polygon{}, fmt.Errorf("spatial: polygon not convex/CCW at vertex %d", (i+1)%n)
		}
	}
	return Polygon{Verts: verts}, nil
}

// cross returns the z-component of (b-a) x (c-a): positive for a left
// turn.
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// Bounds returns the bounding rectangle.
func (p Polygon) Bounds() Rect {
	r := Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, v := range p.Verts {
		r.MinX = math.Min(r.MinX, v.X)
		r.MinY = math.Min(r.MinY, v.Y)
		r.MaxX = math.Max(r.MaxX, v.X)
		r.MaxY = math.Max(r.MaxY, v.Y)
	}
	return r
}

// Overlaps reports whether two convex polygons intersect (boundary
// touching counts), via the separating axis theorem: the polygons are
// disjoint iff some edge normal of either polygon separates them.
func (p Polygon) Overlaps(q Polygon) bool {
	return !hasSeparatingAxis(p, q) && !hasSeparatingAxis(q, p)
}

func hasSeparatingAxis(p, q Polygon) bool {
	n := len(p.Verts)
	for i := 0; i < n; i++ {
		a, b := p.Verts[i], p.Verts[(i+1)%n]
		// Outward normal of edge a->b for a CCW polygon.
		axis := Point{X: b.Y - a.Y, Y: -(b.X - a.X)}
		pMin, pMax := project(p, axis)
		qMin, qMax := project(q, axis)
		if pMax < qMin || qMax < pMin {
			return true
		}
	}
	return false
}

func project(p Polygon, axis Point) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range p.Verts {
		d := v.X*axis.X + v.Y*axis.Y
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	return lo, hi
}
