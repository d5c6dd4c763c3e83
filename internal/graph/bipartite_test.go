package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBipartiteNumbering(t *testing.T) {
	b := NewBipartite(2, 3, []Edge{{U: 1, V: 2}})
	if b.LeftVertex(1) != 1 || b.RightVertex(0) != 2 || b.RightVertex(2) != 4 {
		t.Fatal("vertex numbering broken")
	}
	if !b.Side(1) || b.Side(2) {
		t.Fatal("Side broken")
	}
	l, r := b.EdgeAt(0)
	if l != 1 || r != 2 {
		t.Fatalf("EdgeAt got (%d,%d)", l, r)
	}
	if !b.HasEdge(1, 2) || b.HasEdge(0, 0) {
		t.Fatal("HasEdge broken")
	}
}

func TestBipartiteDegrees(t *testing.T) {
	b := NewBipartite(2, 2, []Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 1}})
	g := b.Graph()
	if g.Degree(b.LeftVertex(0)) != 2 || g.Degree(b.LeftVertex(1)) != 1 {
		t.Fatal("left degrees")
	}
	if g.Degree(b.RightVertex(0)) != 1 || g.Degree(b.RightVertex(1)) != 2 {
		t.Fatal("right degrees")
	}
}

func TestIsBipartitionRejectsOddCycle(t *testing.T) {
	g := New(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	if _, ok := IsBipartition(g); ok {
		t.Fatal("triangle should not be bipartite")
	}
}

func TestIsBipartitionAcceptsEvenCycle(t *testing.T) {
	g := New(4, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0},
	})
	side, ok := IsBipartition(g)
	if !ok {
		t.Fatal("C4 is bipartite")
	}
	for _, e := range g.Edges() {
		if side[e.U] == side[e.V] {
			t.Fatal("2-coloring puts edge inside one side")
		}
	}
}

func TestFromGraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		b := RandomConnectedBipartite(rng, 4, 5, 12)
		b2, _, _, err := FromGraph(b.Graph())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if b2.M() != b.M() {
			t.Fatalf("trial %d: m=%d want %d", trial, b2.M(), b.M())
		}
		// Side sizes may swap (2-coloring is symmetric) but the total and
		// the degree multiset must agree.
		if b2.NLeft()+b2.NRight() != b.NLeft()+b.NRight() {
			t.Fatalf("trial %d: vertex count changed", trial)
		}
		ds1 := b.Graph().DegreeSequence()
		ds2 := b2.Graph().DegreeSequence()
		for i := range ds1 {
			if ds1[i] != ds2[i] {
				t.Fatalf("trial %d: degree sequences differ", trial)
			}
		}
	}
}

func TestCompleteBipartite(t *testing.T) {
	b := CompleteBipartite(3, 4)
	if b.M() != 12 {
		t.Fatalf("K_{3,4} has %d edges", b.M())
	}
	if !b.Graph().Connected() {
		t.Fatal("K_{3,4} should be connected")
	}
	for l := 0; l < 3; l++ {
		if b.Graph().Degree(b.LeftVertex(l)) != 4 {
			t.Fatal("left degree in complete bipartite")
		}
	}
}

func TestMatchingStructure(t *testing.T) {
	b := Matching(5)
	if b.M() != 5 {
		t.Fatal("matching size")
	}
	if b.Graph().ComponentCount() != 5 {
		t.Fatal("matching should have one component per edge")
	}
	if b.Graph().MaxDegree() != 1 {
		t.Fatal("matching max degree")
	}
}

func TestPathBipartite(t *testing.T) {
	for m := 1; m <= 9; m++ {
		b := PathBipartite(m)
		if b.M() != m {
			t.Fatalf("m=%d: got %d edges", m, b.M())
		}
		g, _ := b.Graph().WithoutIsolated()
		if !g.Connected() {
			t.Fatalf("m=%d: path disconnected", m)
		}
		// A path has exactly two degree-1 vertices (or one edge case m=1).
		deg1 := 0
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) == 1 {
				deg1++
			}
			if g.Degree(v) > 2 {
				t.Fatalf("m=%d: degree >2 in path", m)
			}
		}
		if deg1 != 2 {
			t.Fatalf("m=%d: %d endpoints", m, deg1)
		}
	}
}

func TestCycleBipartite(t *testing.T) {
	for _, m := range []int{4, 6, 10} {
		b := CycleBipartite(m)
		if b.M() != m {
			t.Fatalf("m=%d: edges=%d", m, b.M())
		}
		g := b.Graph()
		if !g.Connected() {
			t.Fatal("cycle disconnected")
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != 2 {
				t.Fatalf("cycle vertex degree %d", g.Degree(v))
			}
		}
	}
}

func TestCycleBipartiteRejectsOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd cycle must panic")
		}
	}()
	CycleBipartite(5)
}

func TestGridBipartite(t *testing.T) {
	b := GridBipartite(3, 4)
	wantM := 3*3 + 2*4 // horizontal + vertical
	if b.M() != wantM {
		t.Fatalf("grid edges=%d want %d", b.M(), wantM)
	}
	if !b.Graph().Connected() {
		t.Fatal("grid disconnected")
	}
}

func TestRandomConnectedBipartiteProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	err := quick.Check(func(seedRaw int64, nlRaw, nrRaw, extraRaw uint8) bool {
		nl := int(nlRaw%5) + 2
		nr := int(nrRaw%5) + 2
		minM := nl + nr - 1
		maxM := nl * nr
		m := minM + int(extraRaw)%(maxM-minM+1)
		b := RandomConnectedBipartite(rand.New(rand.NewSource(seedRaw)), nl, nr, m)
		if b.M() != m {
			return false
		}
		if !b.Graph().Connected() {
			return false
		}
		if _, ok := IsBipartition(b.Graph()); !ok {
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandomBipartiteDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := RandomBipartite(rng, 50, 50, 0.5)
	if b.M() < 900 || b.M() > 1600 {
		t.Fatalf("p=0.5 on 2500 pairs gave m=%d, far from expectation", b.M())
	}
	if RandomBipartite(rng, 10, 10, 0).M() != 0 {
		t.Fatal("p=0 must give no edges")
	}
	if RandomBipartite(rng, 10, 10, 1).M() != 100 {
		t.Fatal("p=1 must give all edges")
	}
}

func TestBipartiteEqualClone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := RandomConnectedBipartite(rng, 3, 3, 6)
	var more []Edge
	for i := 0; i < b.M(); i++ {
		l, r := b.EdgeAt(i)
		more = append(more, Edge{U: l, V: r})
	}
	if c := NewBipartite(3, 3, slices.Clone(more)); !b.Equal(c) {
		t.Fatal("a copy rebuilt from the same edges should be Equal")
	}
	for l := 0; l < 3 && len(more) == b.M(); l++ {
		for r := 0; r < 3; r++ {
			if !b.HasEdge(l, r) {
				more = append(more, Edge{U: l, V: r})
				break
			}
		}
	}
	if b.Equal(NewBipartite(3, 3, more)) {
		t.Fatal("Equal ignored an extra edge")
	}
}
