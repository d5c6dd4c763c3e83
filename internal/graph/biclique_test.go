package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// sameStructure fails t unless got and want have the same vertices and
// edges, edge for edge, the same Neighbors, IncidentEdges and
// IncidentEdgesByNeighbor span at every vertex, and the same components.
func sameStructure(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: n=%d m=%d, want n=%d m=%d", what, got.N(), got.M(), want.N(), want.M())
	}
	for i := 0; i < want.M(); i++ {
		if got.EdgeAt(i) != want.EdgeAt(i) {
			t.Fatalf("%s: edge %d is %v, want %v", what, i, got.EdgeAt(i), want.EdgeAt(i))
		}
	}
	for v := 0; v < want.N(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) ||
			!slices.Equal(got.IncidentEdges(v), want.IncidentEdges(v)) ||
			!slices.Equal(got.IncidentEdgesByNeighbor(v), want.IncidentEdgesByNeighbor(v)) {
			t.Fatalf("%s: spans of vertex %d differ", what, v)
		}
	}
	if got.ComponentCount() != want.ComponentCount() {
		t.Fatalf("%s: %d components, want %d", what, got.ComponentCount(), want.ComponentCount())
	}
	for ci := range want.ComponentCount() {
		gv, ge := got.Component(ci)
		wv, we := want.Component(ci)
		if !slices.Equal(gv, wv) || !slices.Equal(ge, we) {
			t.Fatalf("%s: component %d is %v %v, want %v %v", what, ci, gv, ge, wv, we)
		}
	}
}

// bicliquePairs lists the pairs NewBicliqueUnion joins, left-major with
// right indices ascending, by testing every pair.
func bicliquePairs(left, right []int32) []Edge {
	var edges []Edge
	for i, g := range left {
		for j, h := range right {
			if g >= 0 && g == h {
				edges = append(edges, Edge{U: i, V: j})
			}
		}
	}
	return edges
}

func checkBicliqueUnion(t *testing.T, what string, left, right []int32, groups int) {
	t.Helper()
	got := NewBicliqueUnion(left, right, groups)
	want := NewBipartite(len(left), len(right), bicliquePairs(left, right))
	if got.NLeft() != want.NLeft() || got.NRight() != want.NRight() {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.NLeft(), got.NRight(), want.NLeft(), want.NRight())
	}
	sameStructure(t, what, got.Graph(), want.Graph())
}

// TestNewBicliqueUnionMatchesNewBipartite: the graph written from the
// groups is NewBipartite's over the pairs, in edges, spans and
// components, on random group assignments, groups with members on one
// side only, tuples in no group and empty sides.
func TestNewBicliqueUnionMatchesNewBipartite(t *testing.T) {
	cases := []struct {
		name        string
		left, right []int32
		groups      int
	}{
		{"no tuples", nil, nil, 0},
		{"no left tuples", nil, []int32{0, 1, 0}, 2},
		{"no right tuples", []int32{1, 0, -1}, nil, 2},
		{"no shared group", []int32{0, 0, 1}, []int32{2, 3, 2}, 4},
		{"one group", []int32{0, 0, 0}, []int32{0, 0}, 1},
		{"no group at all", []int32{-1, -1}, []int32{-1, -5}, 0},
		{"interleaved", []int32{2, 0, 1, 0, 2, -1, 1}, []int32{1, 2, 0, 2, -1, 0, 3}, 4},
		{"one-sided groups", []int32{0, 1, 1, 3}, []int32{2, 1, 0, 2}, 4},
	}
	for _, c := range cases {
		checkBicliqueUnion(t, c.name, c.left, c.right, c.groups)
	}
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 2000; trial++ {
		groups := rng.Intn(8)
		draw := func(n int) []int32 {
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = int32(rng.Intn(groups+2)) - 2 // some tuples in no group
			}
			return ids
		}
		checkBicliqueUnion(t, "random", draw(rng.Intn(20)), draw(rng.Intn(20)), groups)
	}
}

func TestNewBicliqueUnionRejectsGroupOutOfRange(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "group 2 out of range") {
			t.Fatalf("recovered %v, want a group range panic", r)
		}
	}()
	NewBicliqueUnion([]int32{0}, []int32{2}, 2)
}
