package graph

import (
	"context"
	"math/rand"
	"sort"
	"testing"
)

// randomGraphs returns a deterministic mix of shapes that exercise the
// compact index: paths, stars, dense blobs, multi-component unions.
func randomGraphs(t *testing.T) []*Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var gs []*Graph
	gs = append(gs, New(0), New(1), New(5)) // edgeless
	star := New(9)
	for v := 1; v < 9; v++ {
		star.AddEdge(0, v)
	}
	gs = append(gs, star)
	for i := 0; i < 8; i++ {
		n := 2 + rng.Intn(20)
		maxM := n * (n - 1) / 2
		m := n - 1 + rng.Intn(maxM-n+2)
		if m > maxM {
			m = maxM
		}
		gs = append(gs, RandomConnectedGraph(rng, n, m, 0))
	}
	sparse := func(n int) *Graph {
		m := n - 1 + rng.Intn(3)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		return RandomConnectedGraph(rng, n, m, 0)
	}
	for i := 0; i < 4; i++ {
		gs = append(gs, DisjointUnion(sparse(3+rng.Intn(8)), sparse(3+rng.Intn(8))))
	}
	return gs
}

func TestFrozenMutationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on frozen graph did not panic", name)
			}
		}()
		fn()
	}
	g := New(3)
	g.AddEdge(0, 1)
	g.Freeze()
	if !g.Frozen() {
		t.Fatal("Freeze did not mark the graph frozen")
	}
	mustPanic("AddEdge", func() { g.AddEdge(1, 2) })
	mustPanic("AddVertex", func() { g.AddVertex() })
	// Reads must still work after the attempted mutations.
	if !g.HasEdge(0, 1) || g.M() != 1 {
		t.Fatal("frozen graph corrupted by rejected mutation")
	}
}

func TestOptimizeAllowsFurtherMutation(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.Optimize()
	if g.Frozen() {
		t.Fatal("Optimize must not freeze")
	}
	g.AddEdge(1, 2) // must invalidate, not panic
	if !g.HasEdge(1, 2) {
		t.Fatal("edge added after Optimize not visible")
	}
	if i, ok := g.EdgeIndex(1, 2); !ok || i != 1 {
		t.Fatalf("EdgeIndex(1,2) = %d,%v after Optimize+AddEdge, want 1,true", i, ok)
	}
}

// TestCSRMatchesMap is the core differential: every read accessor must
// answer identically (including slice order) before and after the compact
// index is built.
func TestCSRMatchesMap(t *testing.T) {
	for gi, g := range randomGraphs(t) {
		plain := g.Clone() // map-backed
		cold := g.Clone()
		frozen := cold.Clone().Freeze()
		cold.Optimize()
		for _, idx := range []*Graph{cold, frozen} {
			for u := 0; u < g.N(); u++ {
				if got, want := idx.Degree(u), plain.Degree(u); got != want {
					t.Fatalf("graph %d: Degree(%d) = %d, want %d", gi, u, got, want)
				}
				if got, want := idx.Neighbors(u), plain.Neighbors(u); !equalInts(got, want) {
					t.Fatalf("graph %d: Neighbors(%d) = %v, want %v", gi, u, got, want)
				}
				if got, want := idx.IncidentEdges(u), plain.IncidentEdges(u); !equalInts(got, want) {
					t.Fatalf("graph %d: IncidentEdges(%d) = %v, want %v", gi, u, got, want)
				}
				for v := 0; v < g.N(); v++ {
					if got, want := idx.HasEdge(u, v), plain.HasEdge(u, v); got != want {
						t.Fatalf("graph %d: HasEdge(%d,%d) = %v, want %v", gi, u, v, got, want)
					}
					gotI, gotOK := idx.EdgeIndex(u, v)
					wantI, wantOK := plain.EdgeIndex(u, v)
					if gotI != wantI || gotOK != wantOK {
						t.Fatalf("graph %d: EdgeIndex(%d,%d) = %d,%v, want %d,%v", gi, u, v, gotI, gotOK, wantI, wantOK)
					}
				}
			}
		}
	}
}

// TestLineGraphMatchesReference pins the fast builder to the map-backed
// original: identical vertex count, edge multiset, and edge order (the
// solver's determinism depends on the order).
func TestLineGraphMatchesReference(t *testing.T) {
	for gi, g := range randomGraphs(t) {
		fast := LineGraph(g.Clone())
		ref := lineGraphReference(g.Clone())
		if fast.N() != ref.N() || fast.M() != ref.M() {
			t.Fatalf("graph %d: fast L(G) is %dv/%de, reference %dv/%de", gi, fast.N(), fast.M(), ref.N(), ref.M())
		}
		for i := range ref.Edges() {
			if fast.EdgeAt(i) != ref.EdgeAt(i) {
				t.Fatalf("graph %d: L(G) edge %d = %v, reference %v", gi, i, fast.EdgeAt(i), ref.EdgeAt(i))
			}
		}
		for v := 0; v < ref.N(); v++ {
			if !equalInts(fast.Neighbors(v), ref.Neighbors(v)) {
				t.Fatalf("graph %d: L(G) adjacency of %d differs: %v vs %v", gi, v, fast.Neighbors(v), ref.Neighbors(v))
			}
		}
		if !fast.Equal(ref) {
			t.Fatalf("graph %d: fast L(G) not Equal to reference", gi)
		}
	}
}

// TestLineGraphViewMatchesMaterialized checks the implicit view answers
// every Adjacency query exactly like a materialized line graph.
func TestLineGraphViewMatchesMaterialized(t *testing.T) {
	for gi, g := range randomGraphs(t) {
		view := NewLineGraphView(g.Clone())
		ref := lineGraphReference(g.Clone())
		if view.N() != ref.N() {
			t.Fatalf("graph %d: view has %d vertices, reference %d", gi, view.N(), ref.N())
		}
		var buf []int
		for i := 0; i < ref.N(); i++ {
			if got, want := view.Degree(i), ref.Degree(i); got != want {
				t.Fatalf("graph %d: view Degree(%d) = %d, want %d", gi, i, got, want)
			}
			buf = view.AppendNeighbors(buf[:0], i)
			if !sameSet(buf, ref.Neighbors(i)) {
				t.Fatalf("graph %d: view neighbors of %d = %v, want set %v", gi, i, buf, ref.Neighbors(i))
			}
			for j := 0; j < ref.N(); j++ {
				if got, want := view.HasEdge(i, j), ref.HasEdge(i, j); got != want {
					t.Fatalf("graph %d: view HasEdge(%d,%d) = %v, want %v", gi, i, j, got, want)
				}
			}
		}
	}
}

// TestFindClawAgreement: claw detection through the view must agree with
// detection on the materialized line graph.
func TestFindClawAgreement(t *testing.T) {
	ctx := context.Background()
	for gi, g := range randomGraphs(t) {
		_, _, matClaw, err := FindClaw(ctx, lineGraphReference(g.Clone()), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _, viewClaw, err := FindClaw(ctx, NewLineGraphView(g.Clone()), nil)
		if err != nil {
			t.Fatal(err)
		}
		if viewClaw != matClaw {
			t.Fatalf("graph %d: view says claw present=%v, materialized says %v", gi, viewClaw, matClaw)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	return equalInts(as, bs)
}
