package sets

import (
	"math/rand"
	"testing"
	"testing/quick"

	"joinpebble/internal/graph"
)

func TestNewDedupSort(t *testing.T) {
	s := New(3, 1, 2, 3, 1)
	if s.Len() != 3 {
		t.Fatalf("len=%d", s.Len())
	}
	want := []uint32{1, 2, 3}
	for i, e := range s.Elems() {
		if e != want[i] {
			t.Fatalf("elems=%v", s.Elems())
		}
	}
}

func TestEmptySet(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 || s.Contains(0) {
		t.Fatal("zero value should be empty")
	}
	if !s.SubsetOf(New(1, 2)) || !s.SubsetOf(Set{}) {
		t.Fatal("empty set is a subset of everything")
	}
}

func TestContains(t *testing.T) {
	s := New(2, 4, 6, 8)
	for _, e := range []uint32{2, 4, 6, 8} {
		if !s.Contains(e) {
			t.Fatalf("missing %d", e)
		}
	}
	for _, e := range []uint32{0, 1, 3, 5, 7, 9} {
		if s.Contains(e) {
			t.Fatalf("spurious %d", e)
		}
	}
}

func TestSubsetOf(t *testing.T) {
	cases := []struct {
		a, b Set
		want bool
	}{
		{New(1, 2), New(1, 2, 3), true},
		{New(1, 2, 3), New(1, 2), false},
		{New(1, 4), New(1, 2, 3), false},
		{New(1, 2), New(1, 2), true},
		{New(), New(), true},
		{New(5), New(), false},
	}
	for _, c := range cases {
		if got := c.a.SubsetOf(c.b); got != c.want {
			t.Errorf("%v ⊆ %v = %v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSubsetOfAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	err := quick.Check(func(aBits, bBits uint16) bool {
		var ae, be []uint32
		for i := uint32(0); i < 16; i++ {
			if aBits&(1<<i) != 0 {
				ae = append(ae, i)
			}
			if bBits&(1<<i) != 0 {
				be = append(be, i)
			}
		}
		a, b := New(ae...), New(be...)
		return a.SubsetOf(b) == (aBits&^bBits == 0)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnionIntersect(t *testing.T) {
	a, b := New(1, 3, 5), New(3, 4, 5, 6)
	if u := a.Union(b); !u.Equal(New(1, 3, 4, 5, 6)) {
		t.Fatalf("union=%v", u)
	}
	if x := intersect(a, b); !x.Equal(New(3, 5)) {
		t.Fatalf("intersect=%v", x)
	}
}

func TestUnionIntersectLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	err := quick.Check(func(aBits, bBits uint16) bool {
		a, b := fromBits(aBits), fromBits(bBits)
		u, x := a.Union(b), intersect(a, b)
		// |A∪B| + |A∩B| = |A| + |B|; A∩B ⊆ A ⊆ A∪B.
		return u.Len()+x.Len() == a.Len()+b.Len() &&
			x.SubsetOf(a) && a.SubsetOf(u) &&
			u.Equal(b.Union(a)) && x.Equal(intersect(b, a))
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func fromBits(bits uint16) Set {
	var es []uint32
	for i := uint32(0); i < 16; i++ {
		if bits&(1<<i) != 0 {
			es = append(es, i)
		}
	}
	return New(es...)
}

func TestStringParseRoundTrip(t *testing.T) {
	for _, s := range []Set{New(), New(7), New(1, 2, 9)} {
		back, err := Parse(s.String())
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(s) {
			t.Fatalf("round trip %v -> %v", s, back)
		}
	}
	if _, err := Parse("1,2"); err == nil {
		t.Fatal("missing braces must fail")
	}
	if _, err := Parse("{1,x}"); err == nil {
		t.Fatal("bad element must fail")
	}
}

func TestSignatureNoFalseNegatives(t *testing.T) {
	// If r ⊆ s then the signatures must allow it — the filter may only
	// produce false positives.
	rng := rand.New(rand.NewSource(3))
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	err := quick.Check(func(aBits, extra uint16) bool {
		a := fromBits(aBits)
		s := a.Union(fromBits(extra)) // guaranteed superset
		return SignatureOf(a).MaySubset(SignatureOf(s))
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSignatureFiltersSome(t *testing.T) {
	// Sanity: disjoint sets over distinct hash buckets must be filtered.
	a := New(1)
	b := New(2)
	if SignatureOf(a).MaySubset(SignatureOf(b)) && SignatureOf(b).MaySubset(SignatureOf(a)) {
		// Both directions passing would mean hash collision for 1 and 2 —
		// check explicitly rather than assume.
		if hash32(1)%64 != hash32(2)%64 {
			t.Fatal("signature filter let disjoint singletons through both ways")
		}
	}
}

func TestInvertedIndexSupersets(t *testing.T) {
	data := []Set{
		New(1, 2, 3),
		New(2, 3),
		New(3),
		New(1, 3, 5),
	}
	idx := BuildInvertedIndex(data)
	if idx.Size() != 4 {
		t.Fatal("size")
	}
	got := idx.Supersets(New(2, 3))
	want := []int{0, 1}
	if len(got) != len(want) || got[0] != 0 || got[1] != 1 {
		t.Fatalf("supersets of {2,3} = %v want %v", got, want)
	}
	if got := idx.Supersets(New(9)); len(got) != 0 {
		t.Fatalf("supersets of {9} = %v", got)
	}
	if got := idx.Supersets(Set{}); len(got) != 4 {
		t.Fatalf("empty probe must match all, got %v", got)
	}
}

func TestInvertedIndexAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		data := make([]Set, 20)
		for i := range data {
			data[i] = randomSet(rng, 8, 12)
		}
		idx := BuildInvertedIndex(data)
		probe := randomSet(rng, 4, 12)
		got := idx.Supersets(probe)
		var want []int
		for i, s := range data {
			if probe.SubsetOf(s) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

func randomSet(rng *rand.Rand, maxLen, universe int) Set {
	n := rng.Intn(maxLen + 1)
	es := make([]uint32, n)
	for i := range es {
		es[i] = uint32(rng.Intn(universe))
	}
	return New(es...)
}

func TestRealizeBipartiteRoundTrip(t *testing.T) {
	// Lemma 3.3: instance's join graph must equal the input graph exactly
	// (no isolated left vertices in the generator's output by
	// construction of connectivity).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		nl, nr := 2+rng.Intn(5), 2+rng.Intn(5)
		m := nl + nr - 1 + rng.Intn(nl*nr-(nl+nr-1)+1)
		b := graph.RandomConnectedBipartite(rng, nl, nr, m)
		inst := RealizeBipartite(b)
		back := inst.JoinGraph()
		if !back.Equal(b) {
			t.Fatalf("trial %d: round trip changed the graph:\n in  %v\n out %v", trial, b, back)
		}
	}
}

func TestRealizeBipartiteIsolatedVertices(t *testing.T) {
	// r_i is always the singleton {i}, so isolated vertices on either
	// side round-trip exactly rather than becoming universal empty sets.
	b := graph.NewBipartite(2, 2, []graph.Edge{
		{U: 0, V: 0}, // left 1 and right 1 isolated
	})
	inst := RealizeBipartite(b)
	back := inst.JoinGraph()
	if !back.Equal(b) {
		t.Fatalf("round trip with isolated vertices: got %v want %v", back, b)
	}
}

func TestRealizeSpiderFamily(t *testing.T) {
	// The Theorem 3.3 worst-case family is realizable as a set
	// containment join (the paper's §3.2 closing remark).
	for n := 1; n <= 6; n++ {
		b := spider(n)
		inst := RealizeBipartite(b)
		if !inst.JoinGraph().Equal(b) {
			t.Fatalf("n=%d: spider not realized", n)
		}
	}
}

// spider mirrors family.Spider, inlined to keep this package's test
// dependencies to the graph substrate only.
func spider(n int) *graph.Bipartite {
	var bEdges []graph.Edge
	for i := 0; i < n; i++ {
		bEdges = append(bEdges, graph.Edge{U: 0, V: i})
		bEdges = append(bEdges, graph.Edge{U: 1 + i, V: i})
	}
	return graph.NewBipartite(n+1, n, bEdges)
}

// intersect is s ∩ t, the reference the union laws are checked against.
func intersect(s, t Set) Set {
	var out []uint32
	for _, e := range s.Elems() {
		if t.Contains(e) {
			out = append(out, e)
		}
	}
	return New(out...)
}
