package graph

import (
	"fmt"
	"slices"
	"testing"
)

// mapGraph is a second, map-backed encoding of a graph: an edge list, a
// map from normalized edge to index, and adjacency lists grown one
// insertion at a time. It is the oracle New's CSR is checked against.
type mapGraph struct {
	n     int
	edges []Edge
	index map[Edge]int
	adj   [][]int
}

func newMapGraph(n int) *mapGraph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &mapGraph{n: n, index: make(map[Edge]int), adj: make([][]int, n)}
}

// mapGraphOf inserts edges into a mapGraph one at a time.
func mapGraphOf(n int, edges []Edge) *mapGraph {
	o := newMapGraph(n)
	for _, e := range edges {
		o.addEdge(e.U, e.V)
	}
	return o
}

// addEdge inserts {u,v} and returns its index; a repeated pair returns
// the index of its first occurrence. It panics as New does.
func (o *mapGraph) addEdge(u, v int) int {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	checkVertex(u, o.n)
	checkVertex(v, o.n)
	e := Edge{U: u, V: v}.Normalize()
	if i, ok := o.index[e]; ok {
		return i
	}
	i := len(o.edges)
	o.edges = append(o.edges, e)
	o.index[e] = i
	o.adj[u] = append(o.adj[u], v)
	o.adj[v] = append(o.adj[v], u)
	return i
}

func (o *mapGraph) N() int            { return o.n }
func (o *mapGraph) M() int            { return len(o.edges) }
func (o *mapGraph) EdgeAt(i int) Edge { return o.edges[i] }

func (o *mapGraph) Neighbors(v int) []int {
	checkVertex(v, o.n)
	return o.adj[v]
}

func (o *mapGraph) Degree(v int) int { return len(o.Neighbors(v)) }

func (o *mapGraph) EdgeIndex(u, v int) (int, bool) {
	i, ok := o.index[Edge{U: u, V: v}.Normalize()]
	return i, ok
}

func (o *mapGraph) HasEdge(u, v int) bool {
	_, ok := o.EdgeIndex(u, v)
	return ok
}

// IncidentEdges returns v's edge indices in increasing order.
func (o *mapGraph) IncidentEdges(v int) []int {
	out := make([]int, 0, o.Degree(v))
	for _, u := range o.adj[v] {
		out = append(out, o.index[Edge{U: u, V: v}.Normalize()])
	}
	return out
}

// incidentByNeighbor returns v's edge indices ordered by the neighbor at
// their other end.
func (o *mapGraph) incidentByNeighbor(v int) []int {
	nbs := slices.Clone(o.Neighbors(v))
	slices.Sort(nbs)
	out := make([]int, len(nbs))
	for k, u := range nbs {
		out[k], _ = o.EdgeIndex(u, v)
	}
	return out
}

// components finds the oracle's components by BFS over its adjacency
// lists, roots ascending, and returns each component's vertices and edge
// ids, both ascending.
func (o *mapGraph) components() (comps, edges [][]int) {
	label := make([]int, o.n)
	for v := range label {
		label[v] = -1
	}
	for root := 0; root < o.n; root++ {
		if label[root] >= 0 {
			continue
		}
		ci := len(comps)
		label[root] = ci
		queue := []int{root}
		for head := 0; head < len(queue); head++ {
			for _, w := range o.adj[queue[head]] {
				if label[w] < 0 {
					label[w] = ci
					queue = append(queue, w)
				}
			}
		}
		slices.Sort(queue)
		comps = append(comps, queue)
	}
	edges = make([][]int, len(comps))
	for i, e := range o.edges {
		edges[label[e.U]] = append(edges[label[e.U]], i)
	}
	return comps, edges
}

// panicOf runs fn and returns the value it panicked with, or nil.
func panicOf(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// checkAgainstOracle builds edges through New and through the map-backed
// oracle and requires the same panic, or identical answers from every
// read accessor: edge ids, EdgeIndex and HasEdge over every pair
// (out-of-range ids included), the order of Neighbors, IncidentEdges
// and IncidentEdgesByNeighbor, and the component decomposition —
// Components, Component and ComponentCount — against a BFS over the
// oracle's adjacency.
func checkAgainstOracle(t *testing.T, n int, edges []Edge) {
	t.Helper()
	var o *mapGraph
	var g *Graph
	wantP := panicOf(func() { o = mapGraphOf(n, edges) })
	gotP := panicOf(func() { g = New(n, slices.Clone(edges)) })
	if fmt.Sprint(gotP) != fmt.Sprint(wantP) {
		t.Fatalf("New(%d, %v) panicked with %v, oracle with %v", n, edges, gotP, wantP)
	}
	if wantP != nil {
		return
	}
	if g.N() != o.N() || g.M() != o.M() {
		t.Fatalf("New: %d vertices %d edges, oracle %d and %d", g.N(), g.M(), o.N(), o.M())
	}
	for i := 0; i < o.M(); i++ {
		if g.EdgeAt(i) != o.EdgeAt(i) {
			t.Fatalf("EdgeAt(%d): New %v, oracle %v", i, g.EdgeAt(i), o.EdgeAt(i))
		}
	}
	for u := 0; u < n; u++ {
		if g.Degree(u) != o.Degree(u) {
			t.Fatalf("Degree(%d): New %d, oracle %d", u, g.Degree(u), o.Degree(u))
		}
		if !slices.Equal(g.Neighbors(u), o.Neighbors(u)) {
			t.Fatalf("Neighbors(%d): New %v, oracle %v", u, g.Neighbors(u), o.Neighbors(u))
		}
		if !slices.Equal(g.IncidentEdges(u), o.IncidentEdges(u)) {
			t.Fatalf("IncidentEdges(%d): New %v, oracle %v", u, g.IncidentEdges(u), o.IncidentEdges(u))
		}
		if got, want := g.IncidentEdgesByNeighbor(u), o.incidentByNeighbor(u); !slices.Equal(got, want) {
			t.Fatalf("IncidentEdgesByNeighbor(%d): New %v, oracle %v", u, got, want)
		}
	}
	wantComps, wantEdges := o.components()
	comps := g.Components()
	if len(comps) != len(wantComps) || g.ComponentCount() != len(wantComps) {
		t.Fatalf("Components: New %v, oracle %v", comps, wantComps)
	}
	for ci := range wantComps {
		if !slices.Equal(comps[ci], wantComps[ci]) {
			t.Fatalf("component %d: New %v, oracle %v", ci, comps[ci], wantComps[ci])
		}
	}
	for ci := range wantComps {
		verts, edges := g.Component(ci)
		if !slices.Equal(verts, wantComps[ci]) || !slices.Equal(edges, wantEdges[ci]) {
			t.Fatalf("Component(%d): New %v and %v, oracle %v and %v", ci, verts, edges, wantComps[ci], wantEdges[ci])
		}
	}
	for u := -1; u <= n; u++ {
		for v := -1; v <= n; v++ {
			gi, gok := g.EdgeIndex(u, v)
			wi, wok := o.EdgeIndex(u, v)
			if gi != wi || gok != wok {
				t.Fatalf("EdgeIndex(%d,%d): New %d,%v, oracle %d,%v", u, v, gi, gok, wi, wok)
			}
			if g.HasEdge(u, v) != wok {
				t.Fatalf("HasEdge(%d,%d) = %v, oracle %v", u, v, !wok, wok)
			}
		}
	}
}
