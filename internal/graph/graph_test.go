package graph

import (
	"sort"
	"testing"
)

func TestEdgeNormalize(t *testing.T) {
	e := Edge{U: 5, V: 2}.Normalize()
	if e.U != 2 || e.V != 5 {
		t.Fatalf("Normalize: got %v", e)
	}
	if f := (Edge{U: 1, V: 3}).Normalize(); f.U != 1 || f.V != 3 {
		t.Fatalf("Normalize should keep ordered edge: got %v", f)
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 1, V: 2}
	if e.Other(1) != 2 || e.Other(2) != 1 {
		t.Fatal("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint should panic")
		}
	}()
	e.Other(3)
}

func TestEdgeSharesEndpoint(t *testing.T) {
	a := Edge{U: 0, V: 1}
	cases := []struct {
		b    Edge
		want bool
	}{
		{Edge{U: 1, V: 2}, true},
		{Edge{U: 0, V: 2}, true},
		{Edge{U: 2, V: 3}, false},
		{Edge{U: 0, V: 1}, true},
	}
	for _, c := range cases {
		if got := a.SharesEndpoint(c.b); got != c.want {
			t.Errorf("SharesEndpoint(%v,%v)=%v want %v", a, c.b, got, c.want)
		}
	}
}

func TestAddEdgeDedup(t *testing.T) {
	g := New(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 1, V: 0}, {U: 2, V: 3}, {U: 1, V: 2}})
	if g.M() != 3 {
		t.Fatalf("M=%d want 3", g.M())
	}
	for i, want := range []Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 1, V: 2}} {
		if g.EdgeAt(i) != want {
			t.Fatalf("edge %d = %v, want first-occurrence order %v", i, g.EdgeAt(i), want)
		}
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 || g.Degree(3) != 1 {
		t.Fatal("duplicate pair changed degrees")
	}
	if i, ok := g.EdgeIndex(1, 0); !ok || i != 0 {
		t.Fatalf("EdgeIndex(1,0)=%d,%v, want the first occurrence 0", i, ok)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop should panic")
		}
	}()
	New(2, []Edge{{U: 1, V: 1}})
}

func TestIncidentEdges(t *testing.T) {
	g := New(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 2, V: 3}})
	e01, e02, e23 := 0, 1, 2
	inc := g.IncidentEdges(0)
	if len(inc) != 2 || inc[0] != e01 || inc[1] != e02 {
		t.Fatalf("IncidentEdges(0)=%v", inc)
	}
	if inc := g.IncidentEdges(3); len(inc) != 1 || inc[0] != e23 {
		t.Fatalf("IncidentEdges(3)=%v", inc)
	}
}

func TestWithoutIsolated(t *testing.T) {
	g := New(5, []Edge{{U: 0, V: 2}, {U: 2, V: 4}})
	h, remap := g.WithoutIsolated()
	if h.N() != 3 || h.M() != 2 {
		t.Fatalf("got n=%d m=%d", h.N(), h.M())
	}
	if remap[1] != -1 || remap[3] != -1 {
		t.Fatal("isolated vertices should map to -1")
	}
	if remap[0] != 0 || remap[2] != 1 || remap[4] != 2 {
		t.Fatalf("remap=%v", remap)
	}
	if !h.HasEdge(0, 1) || !h.HasEdge(1, 2) {
		t.Fatal("edges not preserved under renumbering")
	}
}

func TestEqualIgnoresOrder(t *testing.T) {
	g := New(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	h := New(3, []Edge{{U: 2, V: 1}, {U: 1, V: 0}})
	if !g.Equal(h) {
		t.Fatal("graphs with same edge set should be Equal")
	}
	if g.Equal(New(3, []Edge{{U: 2, V: 1}, {U: 1, V: 0}, {U: 0, V: 2}})) {
		t.Fatal("different edge sets should not be Equal")
	}
}

func TestComponents(t *testing.T) {
	g := New(6, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components=%v", comps)
	}
	want := [][]int{{0, 1, 2}, {3, 4}, {5}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d = %v want %v", i, comps[i], want[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("component %d = %v want %v", i, comps[i], want[i])
			}
		}
	}
	if g.ComponentCount() != 3 {
		t.Fatal("ComponentCount mismatch")
	}
}

func TestConnected(t *testing.T) {
	if New(3, []Edge{{U: 0, V: 1}}).Connected() {
		t.Fatal("isolated vertex 2 should break connectivity")
	}
	if !New(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}).Connected() {
		t.Fatal("path should be connected")
	}
	if !New(0, nil).Connected() || !New(1, nil).Connected() {
		t.Fatal("empty and singleton graphs are connected by convention")
	}
}

func TestDisjointUnion(t *testing.T) {
	g := New(2, []Edge{{U: 0, V: 1}})
	h := New(3, []Edge{{U: 0, V: 2}})
	u := DisjointUnion(g, h)
	if u.N() != 5 || u.M() != 2 {
		t.Fatalf("union n=%d m=%d", u.N(), u.M())
	}
	if !u.HasEdge(0, 1) || !u.HasEdge(2, 4) {
		t.Fatal("union edges misplaced")
	}
	if u.ComponentCount() != 3 {
		t.Fatalf("union components=%d", u.ComponentCount())
	}
}

// DegreeSequence returns the sorted (descending) degree sequence, an
// isomorphism invariant the tests compare graphs by.
func (g *Graph) DegreeSequence() []int {
	ds := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		ds[v] = g.csr.degree(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ds)))
	return ds
}

func TestDegreeSequence(t *testing.T) {
	g := New(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	ds := g.DegreeSequence()
	want := []int{3, 1, 1, 1}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("degree sequence %v want %v", ds, want)
		}
	}
	if g.MaxDegree() != 3 {
		t.Fatal("MaxDegree")
	}
}

func TestEdgeIndexLookup(t *testing.T) {
	g := New(3, []Edge{{U: 0, V: 1}})
	want := 0
	if idx, ok := g.EdgeIndex(1, 0); !ok || idx != want {
		t.Fatalf("EdgeIndex(1,0)=%d,%v", idx, ok)
	}
	if _, ok := g.EdgeIndex(0, 2); ok {
		t.Fatal("non-edge should miss")
	}
	if _, ok := g.EdgeIndex(-1, 9); ok {
		t.Fatal("out-of-range should miss, not panic")
	}
}

func TestStringRenderings(t *testing.T) {
	g := New(2, []Edge{{U: 0, V: 1}})
	if got := g.String(); got != "graph{n=2 m=1 [0-1]}" {
		t.Fatalf("graph string %q", got)
	}
	b := NewBipartite(1, 1, []Edge{{U: 0, V: 0}})
	if got := b.String(); got != "bipartite{1x1 m=1 [0-0]}" {
		t.Fatalf("bipartite string %q", got)
	}
}

func TestVertexRangePanics(t *testing.T) {
	g := New(2, nil)
	for _, fn := range []func(){
		func() { New(2, []Edge{{U: 0, V: 5}}) },
		func() { g.Neighbors(-1) },
		func() { New(-1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	for _, fn := range []func(){
		func() { NewBipartite(1, 1, []Edge{{U: 1, V: 0}}) },
		func() { NewBipartite(1, 1, []Edge{{U: 0, V: 1}}) },
		func() { NewBipartite(-1, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected bipartite panic")
				}
			}()
			fn()
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	h := g.Clone()
	if !h.Equal(g) || h.String() != g.String() {
		t.Fatalf("clone %v differs from %v", h, g)
	}
	if &h.edges[0] == &g.edges[0] || &h.csr.start[0] == &g.csr.start[0] {
		t.Fatal("clone shares storage with original")
	}
}
