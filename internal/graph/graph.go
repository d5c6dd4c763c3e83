// Package graph provides the graph substrate used throughout joinpebble:
// general undirected graphs, bipartite join graphs, traversals, line
// graphs, incidence graphs and the small Hamiltonian-path searches that
// the paper's arguments rest on.
//
// Vertices are dense integers 0..N()-1. Edges are unordered pairs,
// deduplicated, and indexed 0..M()-1 in insertion order; the edge index is
// what the line graph and the pebbling machinery key on.
package graph

import (
	"fmt"
	"slices"
	"strings"
)

// Edge is an undirected edge between vertices U and V. Invariant: U <= V
// once stored in a Graph (Normalize enforces it).
type Edge struct {
	U, V int
}

// Normalize returns the edge with endpoints ordered so that U <= V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v int) int {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
}

// SharesEndpoint reports whether e and f have a common endpoint.
func (e Edge) SharesEndpoint(f Edge) bool {
	return e.U == f.U || e.U == f.V || e.V == f.U || e.V == f.V
}

// Graph is a simple undirected graph with a fixed vertex count and a
// deduplicated, insertion-ordered edge list. It has one encoding: New
// builds the edge list and its compressed sparse rows in one pass, and
// the graph never changes afterwards, so it is safe for concurrent
// readers. Every read is an array read: Neighbors and IncidentEdges are
// zero-copy spans in increasing edge-index order, and HasEdge and
// EdgeIndex search the neighbor-sorted span of the lower-degree
// endpoint. The zero value is an empty graph with no vertices.
type Graph struct {
	n     int
	edges []Edge
	csr   csr
}

// New returns the graph on n vertices with the given edges. Edge i of
// the result is the i-th distinct pair of the list: a pair that repeats,
// in either orientation, keeps the index of its first occurrence. New
// panics on a self-loop or an endpoint outside [0,n): the pebble game
// and all join graphs in the paper are simple graphs. New takes
// ownership of edges: it normalizes and compacts the slice in place, and
// the caller should not use it after this call.
func New(n int, edges []Edge) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	for i, e := range edges {
		if e.U == e.V {
			panic(fmt.Sprintf("graph: self-loop at vertex %d", e.U))
		}
		checkVertex(e.U, n)
		checkVertex(e.V, n)
		edges[i] = e.Normalize()
	}
	g := &Graph{n: n, edges: edges}
	var dup []bool
	if g.csr, dup = buildCSR(n, edges); dup != nil {
		kept := edges[:0]
		for i, e := range edges {
			if !dup[i] {
				kept = append(kept, e)
			}
		}
		g.edges = kept
		g.csr, _ = buildCSR(n, kept)
	}
	return g
}

// Clone returns a copy of g, rebuilt through New.
func (g *Graph) Clone() *Graph {
	return New(g.n, slices.Clone(g.edges))
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// HasEdge reports whether {u,v} is an edge of g.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.EdgeIndex(u, v)
	return ok
}

// EdgeIndex returns the index of edge {u,v} and whether it exists.
func (g *Graph) EdgeIndex(u, v int) (int, bool) {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return 0, false
	}
	return g.csr.lookup(u, v)
}

// EdgeAt returns the i-th edge in insertion order.
func (g *Graph) EdgeAt(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list in insertion order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Neighbors returns the neighbors of v in edge-insertion order. The
// returned slice is owned by the graph and must not be mutated.
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	c := &g.csr
	return c.vert[c.start[v]:c.start[v+1]:c.start[v+1]]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return g.csr.degree(v)
}

// MaxDegree returns the maximum vertex degree, or 0 for an edgeless graph.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		d = max(d, g.csr.degree(v))
	}
	return d
}

// IncidentEdges returns the indices of edges incident to v, in increasing
// edge-index order. The returned slice is owned by the graph and must not
// be mutated.
func (g *Graph) IncidentEdges(v int) []int {
	g.checkVertex(v)
	c := &g.csr
	return c.edge[c.start[v]:c.start[v+1]:c.start[v+1]]
}

// IncidentEdgesByNeighbor returns the indices of edges incident to v,
// ordered by the neighbor at their other end, ascending. The returned
// slice is owned by the graph and must not be mutated.
func (g *Graph) IncidentEdgesByNeighbor(v int) []int {
	g.checkVertex(v)
	c := &g.csr
	return c.sortedEdge[c.start[v]:c.start[v+1]:c.start[v+1]]
}

// WithoutIsolated returns a copy of g with isolated vertices removed and
// the remaining vertices renumbered densely, plus the old->new vertex map
// (entries for dropped vertices are -1). Edge insertion order is preserved,
// so edge indices are stable across the operation.
func (g *Graph) WithoutIsolated() (*Graph, []int) {
	remap := make([]int, g.n)
	next := 0
	for v := 0; v < g.n; v++ {
		if g.csr.degree(v) == 0 {
			remap[v] = -1
			continue
		}
		remap[v] = next
		next++
	}
	edges := make([]Edge, len(g.edges))
	for i, e := range g.edges {
		edges[i] = Edge{U: remap[e.U], V: remap[e.V]}
	}
	return New(next, edges), remap
}

// Equal reports whether g and h have the same vertex count and the same
// edge set (insertion order is ignored).
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || len(g.edges) != len(h.edges) {
		return false
	}
	for _, e := range g.edges {
		if !h.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}

// String renders a compact description, e.g. "graph{n=4 m=3 [0-1 1-2 2-3]}".
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph{n=%d m=%d [", g.n, len(g.edges))
	for i, e := range g.edges {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d-%d", e.U, e.V)
	}
	sb.WriteString("]}")
	return sb.String()
}

func (g *Graph) checkVertex(v int) { checkVertex(v, g.n) }

func checkVertex(v, n int) {
	if v < 0 || v >= n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, n))
	}
}

// DisjointUnion returns the disjoint union of g and h: h's vertices are
// shifted by g.N(). Edge order is g's edges followed by h's.
func DisjointUnion(g, h *Graph) *Graph {
	edges := make([]Edge, 0, len(g.edges)+len(h.edges))
	edges = append(edges, g.edges...)
	for _, e := range h.edges {
		edges = append(edges, Edge{U: e.U + g.n, V: e.V + g.n})
	}
	return New(g.n+h.n, edges)
}
