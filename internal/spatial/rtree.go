package spatial

import "sort"

// RTree is an in-memory R-tree over rectangles with integer payload ids,
// built by quadratic-split insertion (Guttman). It backs the
// index-nested-loop spatial join in the join layer, standing in for the
// disk-based spatial access methods the paper's citations ([3], [8],
// [13]) assume.
type RTree struct {
	root     *rtreeNode
	maxFill  int
	minFill  int
	numItems int
}

type rtreeNode struct {
	bounds   Rect
	parent   *rtreeNode
	leaf     bool
	children []*rtreeNode // internal nodes
	entries  []rtreeEntry // leaf nodes
}

type rtreeEntry struct {
	rect Rect
	id   int
}

// NewRTree returns an empty tree with the given maximum node fan-out
// (values below 4 are raised to 4).
func NewRTree(maxFill int) *RTree {
	if maxFill < 4 {
		maxFill = 4
	}
	return &RTree{
		root:    &rtreeNode{leaf: true},
		maxFill: maxFill,
		minFill: maxFill / 2,
	}
}

// Insert adds rect with the given payload id.
func (t *RTree) Insert(rect Rect, id int) {
	if !rect.Valid() {
		panic("spatial: inserting invalid rectangle")
	}
	t.numItems++
	n := t.chooseLeaf(rect)
	n.entries = append(n.entries, rtreeEntry{rect: rect, id: id})
	t.adjustUpward(n)
}

// chooseLeaf descends to the leaf whose bounds need least enlargement,
// breaking ties by smaller area.
func (t *RTree) chooseLeaf(rect Rect) *rtreeNode {
	n := t.root
	for !n.leaf {
		best := n.children[0]
		bestGrow := best.bounds.EnlargedArea(rect) - best.bounds.Area()
		for _, c := range n.children[1:] {
			grow := c.bounds.EnlargedArea(rect) - c.bounds.Area()
			if grow < bestGrow || (grow == bestGrow && c.bounds.Area() < best.bounds.Area()) {
				best, bestGrow = c, grow
			}
		}
		n = best
	}
	return n
}

// adjustUpward recomputes bounds from n to the root, splitting
// overflowing nodes on the way.
func (t *RTree) adjustUpward(n *rtreeNode) {
	for n != nil {
		n.recomputeBounds()
		if t.overflowing(n) {
			t.splitNode(n)
		}
		n = n.parent
	}
}

func (t *RTree) overflowing(n *rtreeNode) bool {
	if n.leaf {
		return len(n.entries) > t.maxFill
	}
	return len(n.children) > t.maxFill
}

// splitNode replaces an overflowing node by two quadratic-split halves,
// growing a new root when the old root splits.
func (t *RTree) splitNode(n *rtreeNode) {
	a, b := t.splitHalves(n)
	if n.parent == nil {
		newRoot := &rtreeNode{leaf: false, children: []*rtreeNode{a, b}}
		a.parent, b.parent = newRoot, newRoot
		newRoot.recomputeBounds()
		t.root = newRoot
		return
	}
	p := n.parent
	for i, c := range p.children {
		if c == n {
			p.children[i] = a
			break
		}
	}
	p.children = append(p.children, b)
	a.parent, b.parent = p, p
	// The caller's upward walk continues at p and will recompute its
	// bounds and split it if it now overflows.
}

func (t *RTree) splitHalves(n *rtreeNode) (a, b *rtreeNode) {
	if n.leaf {
		rects := make([]Rect, len(n.entries))
		for i, e := range n.entries {
			rects[i] = e.rect
		}
		ga, gb := quadraticPartition(rects, t.minFill)
		a = &rtreeNode{leaf: true}
		b = &rtreeNode{leaf: true}
		for _, i := range ga {
			a.entries = append(a.entries, n.entries[i])
		}
		for _, i := range gb {
			b.entries = append(b.entries, n.entries[i])
		}
	} else {
		rects := make([]Rect, len(n.children))
		for i, c := range n.children {
			rects[i] = c.bounds
		}
		ga, gb := quadraticPartition(rects, t.minFill)
		a = &rtreeNode{leaf: false}
		b = &rtreeNode{leaf: false}
		for _, i := range ga {
			n.children[i].parent = a
			a.children = append(a.children, n.children[i])
		}
		for _, i := range gb {
			n.children[i].parent = b
			b.children = append(b.children, n.children[i])
		}
	}
	a.recomputeBounds()
	b.recomputeBounds()
	return a, b
}

// quadraticPartition splits indices 0..len(rects)-1 into two groups by
// Guttman's quadratic method: seed with the pair wasting the most area,
// then assign each remaining rect to the group needing less enlargement.
// When one group must absorb all remaining rects to reach minFill, the
// rest are forced into it.
func quadraticPartition(rects []Rect, minFill int) (ga, gb []int) {
	n := len(rects)
	seedA, seedB := 0, 1
	worst := -1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			waste := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if waste > worst {
				worst, seedA, seedB = waste, i, j
			}
		}
	}
	ga, gb = []int{seedA}, []int{seedB}
	boundsA, boundsB := rects[seedA], rects[seedB]
	remaining := make([]int, 0, n-2)
	for i := 0; i < n; i++ {
		if i != seedA && i != seedB {
			remaining = append(remaining, i)
		}
	}
	for k, i := range remaining {
		left := len(remaining) - k
		if len(ga)+left == minFill {
			for _, j := range remaining[k:] {
				ga = append(ga, j)
			}
			return ga, gb
		}
		if len(gb)+left == minFill {
			for _, j := range remaining[k:] {
				gb = append(gb, j)
			}
			return ga, gb
		}
		growA := boundsA.EnlargedArea(rects[i]) - boundsA.Area()
		growB := boundsB.EnlargedArea(rects[i]) - boundsB.Area()
		if growA < growB || (growA == growB && len(ga) <= len(gb)) {
			ga = append(ga, i)
			boundsA = boundsA.Union(rects[i])
		} else {
			gb = append(gb, i)
			boundsB = boundsB.Union(rects[i])
		}
	}
	return ga, gb
}

func (n *rtreeNode) recomputeBounds() {
	first := true
	if n.leaf {
		for _, e := range n.entries {
			if first {
				n.bounds = e.rect
				first = false
			} else {
				n.bounds = n.bounds.Union(e.rect)
			}
		}
	} else {
		for _, c := range n.children {
			if first {
				n.bounds = c.bounds
				first = false
			} else {
				n.bounds = n.bounds.Union(c.bounds)
			}
		}
	}
}

// Search returns the ids of all stored rectangles overlapping query, in
// ascending id order.
func (t *RTree) Search(query Rect) []int {
	if t.numItems == 0 {
		return nil
	}
	var out []int
	var rec func(n *rtreeNode)
	rec = func(n *rtreeNode) {
		if !n.bounds.Overlaps(query) {
			return
		}
		if n.leaf {
			for _, e := range n.entries {
				if e.rect.Overlaps(query) {
					out = append(out, e.id)
				}
			}
			return
		}
		for _, c := range n.children {
			rec(c)
		}
	}
	rec(t.root)
	sort.Ints(out)
	return out
}

// Height returns the tree height (1 for a single leaf).
func (t *RTree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}
