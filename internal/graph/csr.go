package graph

import (
	"math/bits"
	"slices"
)

// csr is a Graph's adjacency in compressed sparse rows: flat
// prefix-offset arrays, so HasEdge/EdgeIndex are a search over the
// sorted neighbor span of the lower-degree endpoint and
// IncidentEdges/Neighbors are zero-copy subslices.
type csr struct {
	start      []int // n+1 prefix offsets; vertex v owns slots start[v]:start[v+1]
	vert       []int // neighbor vertex per slot, in edge-insertion order
	edge       []int // incident edge index per slot, parallel to vert
	sortedVert []int // neighbor vertex per slot, sorted ascending within each vertex span
	sortedEdge []int // edge index per slot, parallel to sortedVert
}

// buildCSR constructs the compact representation from a normalized edge
// list. The insertion-order spans (vert/edge) list a vertex's neighbors
// in increasing edge-index order. When every span is already strictly
// increasing by neighbor, as in a join graph emitted left-major, the
// sorted spans share the insertion-order arrays instead of copying them,
// and no pair can repeat. Otherwise dup marks the repeated occurrences
// (see duplicates).
func buildCSR(n int, edges []Edge) (c csr, dup []bool) {
	slots := 2 * len(edges)
	buf := make([]int, n+1+2*slots) // start, vert and edge in one allocation
	c.start = buf[: n+1 : n+1]
	c.vert, c.edge = buf[n+1:n+1+slots:n+1+slots], buf[n+1+slots:]
	for _, e := range edges {
		c.start[e.U+1]++
		c.start[e.V+1]++
	}
	for v := 0; v < n; v++ {
		c.start[v+1] += c.start[v]
	}
	// Fill each span with start[v] as its cursor; afterwards start[v]
	// holds the old start[v+1], so shifting by one restores the offsets.
	for i, e := range edges {
		c.vert[c.start[e.U]], c.edge[c.start[e.U]] = e.V, i
		c.start[e.U]++
		c.vert[c.start[e.V]], c.edge[c.start[e.V]] = e.U, i
		c.start[e.V]++
	}
	copy(c.start[1:], c.start[:n])
	c.start[0] = 0

	c.sortedVert, c.sortedEdge = c.vert, c.edge
	for v := 0; v < n; v++ {
		span := c.vert[c.start[v]:c.start[v+1]]
		for k := 1; k < len(span); k++ {
			if span[k-1] >= span[k] {
				c.sortSpans(v)
				return c, c.duplicates(len(edges))
			}
		}
	}
	return c, nil
}

// sortSpans gives c its own sorted spans, sorting from vertex first on
// (the spans before it are already strictly increasing).
func (c *csr) sortSpans(first int) {
	slots := len(c.vert)
	flat := make([]int, 2*slots)
	c.sortedVert, c.sortedEdge = flat[:slots:slots], flat[slots:]
	copy(c.sortedVert, c.vert)
	copy(c.sortedEdge, c.edge)
	for v := first; v < len(c.start)-1; v++ {
		lo, hi := c.start[v], c.start[v+1]
		if hi-lo > 1 {
			sortSpan(c.sortedVert[lo:hi], c.sortedEdge[lo:hi])
		}
	}
}

// duplicates marks the repeated occurrences among the m edges c was
// built from, or returns nil when every edge is distinct. Sorting a span
// orders equal neighbors by edge index, so each run of equal neighbors
// starts with the pair's first occurrence and the rest are repeats.
func (c *csr) duplicates(m int) []bool {
	var dup []bool
	for v := 0; v+1 < len(c.start); v++ {
		for k := c.start[v] + 1; k < c.start[v+1]; k++ {
			if c.sortedVert[k] == c.sortedVert[k-1] {
				if dup == nil {
					dup = make([]bool, m)
				}
				dup[c.sortedEdge[k]] = true
			}
		}
	}
	return dup
}

// degree returns the length of v's span.
func (c *csr) degree(v int) int { return c.start[v+1] - c.start[v] }

// sortSpan sorts verts ascending, permuting edges in lockstep, with ties
// in edge order. Spans are neighbor lists, so small ones dominate;
// insertion sort, which is stable, covers those. Long spans pack
// vert<<32|edge into the vert slots and run the generic slices.Sort over
// plain ints in place — no spanSorter interface boxing, no scratch
// allocation. The packed key is unambiguous because edge ids within a
// span are distinct, and ordering by it breaks neighbor ties by edge.
// Packing needs both ids to fit 32 bits; the (never taken in practice)
// fallback is the same insertion sort.
func sortSpan(verts, edges []int) {
	if len(verts) > 24 && packable(verts, edges) {
		for i := range verts {
			verts[i] = int(uint64(verts[i])<<32 | uint64(edges[i]))
		}
		slices.Sort(verts)
		for i := range verts {
			edges[i] = int(uint64(verts[i]) & 0xFFFFFFFF)
			verts[i] >>= 32
		}
		return
	}
	for i := 1; i < len(verts); i++ {
		v, e := verts[i], edges[i]
		j := i - 1
		for j >= 0 && verts[j] > v {
			verts[j+1], edges[j+1] = verts[j], edges[j]
			j--
		}
		verts[j+1], edges[j+1] = v, e
	}
}

// packable reports whether every (vert, edge) pair fits the 32/32 packing
// sortSpan uses, which also requires a 64-bit int.
func packable(verts, edges []int) bool {
	if bits.UintSize != 64 {
		return false
	}
	for i := range verts {
		if uint64(verts[i]) >= 1<<31 || uint64(edges[i]) >= 1<<32 {
			return false
		}
	}
	return true
}

// lookup returns the edge index of {u,v} by binary search over the sorted
// neighbor span of the lower-degree endpoint.
//
//joinpebble:hotpath
func (c *csr) lookup(u, v int) (int, bool) {
	if c.start[u+1]-c.start[u] > c.start[v+1]-c.start[v] {
		u, v = v, u
	}
	lo, hi := c.start[u], c.start[u+1]
	// Short spans: a linear scan beats the branch mispredictions of a
	// binary search.
	if hi-lo <= 8 {
		for k := lo; k < hi; k++ {
			if c.sortedVert[k] == v {
				return c.sortedEdge[k], true
			}
		}
		return 0, false
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.sortedVert[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.start[u+1] && c.sortedVert[lo] == v {
		return c.sortedEdge[lo], true
	}
	return 0, false
}
