package spatial

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// rtreeFill is the most children a node holds.
const rtreeFill = 8

// RTree is a static in-memory R-tree over a slice of rectangles, bulk
// loaded by Sort-Tile-Recursive packing (Leutenegger, Lopez and
// Edgington). It backs the index-nested-loop spatial join in the join
// layer, standing in for the disk-based spatial access methods the
// paper's citations ([3], [8], [13]) assume.
type RTree struct {
	root rtreeNode
}

// rtreeNode is an entry when children is nil (id is then the
// rectangle's index) and an inner node otherwise; bounds covers its
// subtree.
type rtreeNode struct {
	bounds   Rect
	id       int
	children []rtreeNode
}

// BuildRTree indexes each rectangle under its position in rects, in
// nodes of at most 8 children. It panics on an invalid rectangle.
func BuildRTree(rects []Rect) *RTree {
	level := make([]rtreeNode, len(rects))
	for i, r := range rects {
		if !r.Valid() {
			panic(fmt.Sprintf("spatial: indexing invalid rectangle %v at %d", r, i))
		}
		level[i] = rtreeNode{bounds: r, id: i}
	}
	level = pack(level)
	for len(level) > 1 {
		level = pack(level)
	}
	t := &RTree{}
	if len(level) == 1 {
		t.root = level[0]
	}
	return t
}

// pack groups one level's nodes under parents of at most rtreeFill
// children: sorted by centre x, the nodes are cut into ⌈√P⌉ vertical
// slabs of whole parents, and each slab, sorted by centre y, fills its
// parents in order. Every parent but a slab's last is full.
func pack(level []rtreeNode) []rtreeNode {
	parents := (len(level) + rtreeFill - 1) / rtreeFill
	slab := rtreeFill * int(math.Ceil(math.Sqrt(float64(parents))))
	slices.SortFunc(level, func(a, b rtreeNode) int {
		return cmp.Compare(a.bounds.MinX+a.bounds.MaxX, b.bounds.MinX+b.bounds.MaxX)
	})
	out := make([]rtreeNode, 0, parents)
	for s := 0; s < len(level); s += slab {
		run := level[s:min(s+slab, len(level))]
		slices.SortFunc(run, func(a, b rtreeNode) int {
			return cmp.Compare(a.bounds.MinY+a.bounds.MaxY, b.bounds.MinY+b.bounds.MaxY)
		})
		for k := 0; k < len(run); k += rtreeFill {
			kids := run[k:min(k+rtreeFill, len(run))]
			n := rtreeNode{bounds: kids[0].bounds, children: kids}
			for _, c := range kids[1:] {
				n.bounds = n.bounds.Union(c.bounds)
			}
			out = append(out, n)
		}
	}
	return out
}

// Search returns the ids of all stored rectangles overlapping query, in
// ascending id order.
func (t *RTree) Search(query Rect) []int {
	out := t.root.search(query, nil)
	slices.Sort(out)
	return out
}

func (n *rtreeNode) search(query Rect, out []int) []int {
	for i := range n.children {
		c := &n.children[i]
		switch {
		case !c.bounds.Overlaps(query):
		case c.children == nil:
			out = append(out, c.id)
		default:
			out = c.search(query, out)
		}
	}
	return out
}

// Height returns the tree height (1 for a single leaf).
func (t *RTree) Height() int {
	h := 1
	for n := &t.root; len(n.children) > 0 && n.children[0].children != nil; n = &n.children[0] {
		h++
	}
	return h
}
