package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/workload"
)

// buildSpider returns the spider S_k join graph the repo's family
// package generates: a center vertex, k middle vertices, k leaves —
// inner edges center–middle, outer edges middle–leaf.
func buildSpider(k int) *graph.Graph {
	var gEdges []graph.Edge
	for i := 0; i < k; i++ {
		gEdges = append(gEdges, graph.Edge{U: 0, V: 1 + 2*i})
		gEdges = append(gEdges, graph.Edge{U: 1 + 2*i, V: 2 + 2*i})
	}
	return graph.New(1+2*k, gEdges)
}

// permuted rebuilds g under a random vertex relabeling with shuffled
// edge-insertion order, so both the labeling and the edge indexing
// differ from the original.
func permuted(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	n := g.N()
	pi := rng.Perm(n)
	var hEdges []graph.Edge
	order := rng.Perm(g.M())
	for _, i := range order {
		e := g.EdgeAt(i)
		hEdges = append(hEdges, graph.Edge{U: pi[e.U], V: pi[e.V]})
	}
	return graph.New(n, hEdges)
}

// corpus returns the generator sweep the cache targets: spiders,
// complete/random bipartite graphs, cycles, paths, and line graphs.
func corpus(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return map[string]*graph.Graph{
		"spider-5":      buildSpider(5),
		"spider-40":     buildSpider(40),
		"complete-3x7":  graph.CompleteBipartite(3, 7).Graph(),
		"complete-5x5":  graph.CompleteBipartite(5, 5).Graph(),
		"cycle-12":      graph.CycleBipartite(12).Graph(),
		"path-9":        graph.PathBipartite(9).Graph(),
		"matching-6":    graph.Matching(6).Graph(),
		"random-8x6":    graph.RandomConnectedBipartite(rng, 8, 6, 20).Graph(),
		"random-12x9":   graph.RandomConnectedBipartite(rng, 12, 9, 30).Graph(),
		"line-spider-7": graph.LineGraph(buildSpider(7)),
		"line-cycle-10": graph.LineGraph(graph.CycleBipartite(10).Graph()),
		"empty":         graph.New(4, nil),
	}
}

// TestFingerprintPermutationInvariance: for every corpus graph, random
// relabelings (with shuffled edge order) fingerprint identically to the
// original — the completeness half of the cache-key contract.
func TestFingerprintPermutationInvariance(t *testing.T) {
	sc := graph.NewCanonScratch()
	for name, g := range corpus(t) {
		_, want := graph.Canonicalize(g, sc)
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 8; trial++ {
			h := permuted(rng, g)
			_, got := graph.Canonicalize(h, sc)
			if got != want {
				t.Errorf("%s trial %d: permuted fingerprint %v != original %v", name, trial, got, want)
			}
		}
	}
}

// TestCanonicalEdgeListsAgree: the canonical labelings of a graph and
// its permutation map both edge lists onto the same canonical edge set,
// which is the property scheme translation rests on.
func TestCanonicalEdgeListsAgree(t *testing.T) {
	for name, g := range corpus(t) {
		rng := rand.New(rand.NewSource(23))
		h := permuted(rng, g)
		pg, _ := graph.Canonicalize(g, nil)
		ph, _ := graph.Canonicalize(h, nil)
		canon := func(g *graph.Graph, perm []int32) map[graph.Edge]bool {
			out := make(map[graph.Edge]bool, g.M())
			for i := 0; i < g.M(); i++ {
				e := g.EdgeAt(i)
				out[graph.Edge{U: int(perm[e.U]), V: int(perm[e.V])}.Normalize()] = true
			}
			return out
		}
		cg, ch := canon(g, pg), canon(h, ph)
		if len(cg) != len(ch) {
			t.Fatalf("%s: canonical edge counts differ: %d vs %d", name, len(cg), len(ch))
		}
		for e := range cg {
			if !ch[e] {
				t.Errorf("%s: canonical edge %v missing from permuted labeling", name, e)
			}
		}
	}
}

// TestCanonicalizePermIsBijection: the labeling is a permutation of
// 0..n-1.
func TestCanonicalizePermIsBijection(t *testing.T) {
	for name, g := range corpus(t) {
		perm, _ := graph.Canonicalize(g, nil)
		if len(perm) != g.N() {
			t.Fatalf("%s: perm length %d, want %d", name, len(perm), g.N())
		}
		seen := make([]bool, g.N())
		for v, id := range perm {
			if id < 0 || int(id) >= g.N() || seen[id] {
				t.Fatalf("%s: perm[%d] = %d is not a fresh id in range", name, v, id)
			}
			seen[id] = true
		}
	}
}

// nearMissPairs are non-isomorphic pairs with identical degree
// sequences — the inputs a degree-histogram hash would conflate.
func nearMissPairs() map[string][2]*graph.Graph {
	// C6 vs two triangles: all vertices degree 2.
	var c6Edges []graph.Edge
	for i := 0; i < 6; i++ {
		c6Edges = append(c6Edges, graph.Edge{U: i, V: (i + 1) % 6})
	}
	c6 := graph.New(6, c6Edges)
	twoC3 := graph.New(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 4},
		{U: 4, V: 5}, {U: 5, V: 3},
	})

	// Two trees with degree sequence [3,2,2,2,1,1,1]: the subdivided
	// claw (diameter 4) vs a caterpillar (diameter 5).
	claw2 := graph.New(7, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 3, V: 4},
		{U: 0, V: 5}, {U: 5, V: 6},
	})
	caterpillar := graph.New(7, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
		{U: 4, V: 5}, {U: 1, V: 6},
	})

	// C8 vs C4 ⊔ C4: degree-2 everywhere, different component shape.
	var c8Edges []graph.Edge
	for i := 0; i < 8; i++ {
		c8Edges = append(c8Edges, graph.Edge{U: i, V: (i + 1) % 8})
	}
	c8 := graph.New(8, c8Edges)
	var twoC4Edges []graph.Edge
	for base := 0; base < 8; base += 4 {
		for i := 0; i < 4; i++ {
			twoC4Edges = append(twoC4Edges, graph.Edge{U: base + i, V: base + (i+1)%4})
		}
	}
	twoC4 := graph.New(8, twoC4Edges)
	return map[string][2]*graph.Graph{
		"c6-vs-2c3":          {c6, twoC3},
		"claw2-vs-caterpill": {claw2, caterpillar},
		"c8-vs-2c4":          {c8, twoC4},
	}
}

// TestFingerprintNearMissDistinct: same degree sequence, different
// structure, distinct fingerprints — and stably so under relabeling of
// either side.
func TestFingerprintNearMissDistinct(t *testing.T) {
	sc := graph.NewCanonScratch()
	for name, pair := range nearMissPairs() {
		a, b := pair[0], pair[1]
		da, db := a.DegreeSequence(), b.DegreeSequence()
		if len(da) != len(db) {
			t.Fatalf("%s: test bug — degree sequences differ in length", name)
		}
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("%s: test bug — degree sequences differ, not a near-miss pair", name)
			}
		}
		_, fa := graph.Canonicalize(a, sc)
		_, fb := graph.Canonicalize(b, sc)
		if fa == fb {
			t.Errorf("%s: non-isomorphic graphs share fingerprint %v", name, fa)
		}
		rng := rand.New(rand.NewSource(3))
		if _, got := graph.Canonicalize(permuted(rng, b), sc); got != fb {
			t.Errorf("%s: relabeled second graph fingerprints %v, want %v", name, got, fb)
		}
	}
}

// TestFingerprintMixSeparates: the same structure under different
// family salts keys differently, and Mix is deterministic.
func TestFingerprintMixSeparates(t *testing.T) {
	_, fp := graph.Canonicalize(buildSpider(4), nil)
	a := fp.Mix(1, 2)
	b := fp.Mix(1, 3)
	if a == b {
		t.Fatalf("different salts must separate: %v", a)
	}
	if a != fp.Mix(1, 2) {
		t.Fatalf("Mix must be deterministic")
	}
	if a == fp {
		t.Fatalf("Mix must change the fingerprint")
	}
}

// TestCanonScratchReuse: one scratch reused across differently-sized
// graphs reproduces fresh-scratch results exactly.
func TestCanonScratchReuse(t *testing.T) {
	sc := graph.NewCanonScratch()
	graphs := corpus(t)
	for round := 0; round < 3; round++ {
		for name, g := range graphs {
			_, reused := graph.Canonicalize(g, sc)
			_, fresh := graph.Canonicalize(g, graph.NewCanonScratch())
			if reused != fresh {
				t.Fatalf("%s round %d: reused scratch %v != fresh %v", name, round, reused, fresh)
			}
		}
	}
}

// TestCanonicalizeAllocatesLabelingOnly pins the allocation contract:
// with a warmed scratch, a call allocates exactly once, the labeling it
// returns. It runs on the corpus and on one 1024-a-side equijoin graph,
// whose cells, member slots and edge keys all come from the scratch.
func TestCanonicalizeAllocatesLabelingOnly(t *testing.T) {
	graphs := corpus(t)
	l, r := workload.Equijoin{LeftSize: 1024, RightSize: 1024, Domain: 512, Skew: 1.2}.Generate(1)
	graphs["equijoin-1024x1024"] = join.EquiGraph(l.Ints(), r.Ints()).Graph()
	sc := graph.NewCanonScratch()
	for _, g := range graphs {
		graph.Canonicalize(g, sc)
	}
	for name, g := range graphs {
		if allocs := testing.AllocsPerRun(20, func() { graph.Canonicalize(g, sc) }); allocs != 1 {
			t.Errorf("%s: %v allocations per call, want 1", name, allocs)
		}
	}
}

// TestCanonicalizeMatchesOracle: Canonicalize returns exactly the
// labeling and Fingerprint of CanonicalizeOracle, the sorting and
// lazy-deletion-heap kernels it replaced, on the corpus, every family
// at sizes 1–60, random graphs with isolated vertices together with
// their permutations and line graphs, and disjoint unions that repeat
// isomorphic components — with one scratch reused across all of them.
func TestCanonicalizeMatchesOracle(t *testing.T) {
	sc := graph.NewCanonScratch()
	check := func(name string, g *graph.Graph) {
		t.Helper()
		perm, fp := graph.Canonicalize(g, sc)
		matchesOracle(t, name, g, perm, fp)
	}
	for name, g := range corpus(t) {
		check(name, g)
	}
	for _, name := range family.All() {
		for size := 1; size <= 60; size++ {
			b, err := family.Build(name, size)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s-%d", name, size), b.Graph())
		}
	}
	rng := rand.New(rand.NewSource(19))
	pool := make([]*graph.Graph, 0, 3000)
	for i := 0; i < 3000; i++ {
		g := randomSparseGraph(rng)
		check(fmt.Sprintf("random-%d", i), g)
		check(fmt.Sprintf("random-%d-permuted", i), permuted(rng, g))
		check(fmt.Sprintf("random-%d-line", i), graph.LineGraph(g))
		pool = append(pool, g)
	}
	for i := 0; i < 300; i++ {
		u := graph.New(0, nil)
		for k := 2 + rng.Intn(3); k > 0; k-- {
			part := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				b, err := family.Build(family.All()[rng.Intn(len(family.All()))], 1+rng.Intn(8))
				if err != nil {
					t.Fatal(err)
				}
				part = b.Graph()
			}
			u = graph.DisjointUnion(u, part)
			if rng.Intn(2) == 0 {
				u = graph.DisjointUnion(u, permuted(rng, part))
			}
		}
		check(fmt.Sprintf("union-%d", i), u)
		check(fmt.Sprintf("union-%d-permuted", i), permuted(rng, u))
	}
	for _, wg := range workloadGraphs() {
		check(wg.name, wg.g)
		check(wg.name+"-permuted", permuted(rng, wg.g))
	}
	for i := 0; i < 150; i++ {
		g := randomDenseGraph(rng)
		check(fmt.Sprintf("dense-%d", i), g)
		check(fmt.Sprintf("dense-%d-permuted", i), permuted(rng, g))
	}
}

// namedGraph is a generated graph under the name a failure reports.
type namedGraph struct {
	name string
	g    *graph.Graph
}

// workloadGraphs returns join graphs of the three generated families at
// the parameters pebbled's instance builder uses: zipf-1.2 equijoins
// over (left+right)/4 values at 64 to 1024 tuples a side, most of whose
// edges sit in the few complete bipartite components of the heaviest
// values, and correlated set-containment joins and 3-cluster spatial
// joins at 64 to 160 a side.
func workloadGraphs() []namedGraph {
	var out []namedGraph
	for _, sides := range [][2]int{{64, 64}, {128, 96}, {256, 256}, {400, 520}, {1024, 1024}} {
		for seed := int64(1); seed <= 2; seed++ {
			l, r := workload.Equijoin{LeftSize: sides[0], RightSize: sides[1],
				Domain: int64(sides[0]+sides[1]) / 4, Skew: 1.2}.Generate(seed)
			out = append(out, namedGraph{fmt.Sprintf("equijoin-%dx%d-seed%d", sides[0], sides[1], seed),
				join.EquiGraph(l.Ints(), r.Ints()).Graph()})
		}
	}
	for _, n := range []int{64, 100, 160} {
		for seed := int64(1); seed <= 3; seed++ {
			l, r := workload.SetContainment{LeftSize: n, RightSize: n, Universe: 64,
				LeftMax: 3, RightMax: 12, Correlated: true}.Generate(seed)
			out = append(out, namedGraph{fmt.Sprintf("containment-%d-seed%d", n, seed),
				join.ContainmentGraph(l.Sets(), r.Sets()).Graph()})
			l, r = workload.Spatial{LeftSize: n, RightSize: n, Span: 100, MaxExtent: 8,
				Clusters: 3}.Generate(seed)
			out = append(out, namedGraph{fmt.Sprintf("spatial-%d-seed%d", n, seed),
				join.OverlapGraph(l.Rects(), r.Rects()).Graph()})
		}
	}
	return out
}

// randomDenseGraph returns a graph on 8–48 vertices whose pairs are
// edges with a probability between 0.3 and 0.9, so one assignment
// touches many frontier cells and splits most of them.
func randomDenseGraph(rng *rand.Rand) *graph.Graph {
	n := 8 + rng.Intn(41)
	p := 0.3 + 0.6*rng.Float64()
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	return graph.New(n, edges)
}

// randomSparseGraph returns a graph on 1–40 vertices with up to 2n
// random pairs, so isolated vertices, several components and repeated
// degrees are common.
func randomSparseGraph(rng *rand.Rand) *graph.Graph {
	n := 1 + rng.Intn(40)
	var edges []graph.Edge
	for k := rng.Intn(2*n + 1); k > 0; k-- {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return graph.New(n, edges)
}

// matchesOracle fails t unless perm and fp, Canonicalize's answer for g,
// equal CanonicalizeOracle's.
func matchesOracle(t *testing.T, name string, g *graph.Graph, perm []int32, fp graph.Fingerprint) {
	t.Helper()
	wantPerm, want := graph.CanonicalizeOracle(g)
	if fp != want {
		t.Fatalf("%s (n=%d m=%d): fingerprint %v, oracle %v", name, g.N(), g.M(), fp, want)
	}
	if len(perm) != len(wantPerm) {
		t.Fatalf("%s: labeling length %d, oracle %d", name, len(perm), len(wantPerm))
	}
	for v := range perm {
		if perm[v] != wantPerm[v] {
			t.Fatalf("%s (n=%d m=%d): vertex %d gets canonical id %d, oracle %d", name, g.N(), g.M(), v, perm[v], wantPerm[v])
		}
	}
}

// FuzzCanonPermutation drives the fingerprint contract over generated
// instances. For the structured families the cache targets (spiders,
// complete bipartite, cycles/paths, line graphs, and disjoint unions of
// complete bipartite graphs that repeat shapes, as equijoin graphs do)
// a random relabeling must fingerprint identically — the completeness
// half. Arbitrary
// random bipartite graphs are included for soundness coverage only:
// the labeling must stay a bijection, the canonical edge lists of a
// graph and its permutation must agree whenever the fingerprints do,
// and repeated calls must be deterministic — but two relabelings may
// fingerprint apart (a cache miss, never a wrong hit), because 1-WL
// refinement plus assigned-neighborhood tie-breaking does not resolve
// every WL-equivalent non-automorphic tie in arbitrary graphs. Both the
// graph and its relabeling must get CanonicalizeOracle's labeling and
// fingerprint.
func FuzzCanonPermutation(f *testing.F) {
	f.Add(uint8(0), uint8(5), uint8(4), int64(1))
	f.Add(uint8(1), uint8(3), uint8(7), int64(2))
	f.Add(uint8(2), uint8(8), uint8(6), int64(3))
	f.Add(uint8(3), uint8(6), uint8(0), int64(4))
	f.Add(uint8(4), uint8(9), uint8(2), int64(5))
	f.Add(uint8(5), uint8(4), uint8(4), int64(6))
	f.Add(uint8(6), uint8(3), uint8(5), int64(7))
	f.Fuzz(func(t *testing.T, kind, a, b uint8, seed int64) {
		na := 2 + int(a)%10
		nb := 2 + int(b)%10
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		structured := true
		switch kind % 7 {
		case 0:
			g = buildSpider(na)
		case 1:
			g = graph.CompleteBipartite(na, nb).Graph()
		case 2:
			lo, hi := na+nb-1, na*nb
			m := lo + int(uint64(seed)%uint64(hi-lo+1))
			g = graph.RandomConnectedBipartite(rng, na, nb, m).Graph()
			structured = false
		case 3:
			g = graph.LineGraph(graph.CycleBipartite(2 * (na + 2)).Graph())
		case 4:
			g = graph.PathBipartite(na + nb).Graph()
		case 5:
			g = graph.Matching(na).Graph()
		case 6:
			g = completeBipartiteUnion(rng, na, nb)
		}
		permG, want := graph.Canonicalize(g, nil)
		if _, again := graph.Canonicalize(g, nil); again != want {
			t.Fatalf("kind %d: fingerprint not deterministic: %v then %v", kind%7, want, again)
		}
		h := permuted(rng, g)
		permH, got := graph.Canonicalize(h, nil)
		checkBijection(t, permG, g.N())
		checkBijection(t, permH, h.N())
		matchesOracle(t, fmt.Sprintf("kind %d", kind%7), g, permG, want)
		matchesOracle(t, fmt.Sprintf("kind %d permuted", kind%7), h, permH, got)
		if structured && got != want {
			t.Fatalf("kind %d n=(%d,%d) seed %d: permuted fingerprint %v != %v", kind%7, na, nb, seed, got, want)
		}
		if got == want {
			// Equal fingerprints must mean equal canonical edge sets —
			// the soundness half, for every kind.
			eg := canonEdges(g, permG)
			eh := canonEdges(h, permH)
			if len(eg) != len(eh) {
				t.Fatalf("kind %d: fingerprints equal but edge counts differ", kind%7)
			}
			for e := range eg {
				if !eh[e] {
					t.Fatalf("kind %d: fingerprints equal but canonical edge %v differs", kind%7, e)
				}
			}
		}
	})
}

// completeBipartiteUnion returns the disjoint union of two to six
// complete bipartite graphs, each K_{a,b} or K_{b,a} with 1 ≤ a ≤ na and
// 1 ≤ b ≤ nb drawn from three shapes, so components repeat shapes, the
// way an equijoin's heaviest values do.
func completeBipartiteUnion(rng *rand.Rand, na, nb int) *graph.Graph {
	var shapes [3][2]int
	for i := range shapes {
		shapes[i] = [2]int{1 + rng.Intn(na), 1 + rng.Intn(nb)}
	}
	u := graph.New(0, nil)
	for k := 2 + rng.Intn(5); k > 0; k-- {
		s := shapes[rng.Intn(len(shapes))]
		if rng.Intn(2) == 0 {
			s[0], s[1] = s[1], s[0]
		}
		u = graph.DisjointUnion(u, graph.CompleteBipartite(s[0], s[1]).Graph())
	}
	return u
}

func checkBijection(t *testing.T, perm []int32, n int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("perm length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for v, id := range perm {
		if id < 0 || int(id) >= n || seen[id] {
			t.Fatalf("perm[%d] = %d is not a fresh id in range", v, id)
		}
		seen[id] = true
	}
}

func canonEdges(g *graph.Graph, perm []int32) map[graph.Edge]bool {
	out := make(map[graph.Edge]bool, g.M())
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		out[graph.Edge{U: int(perm[e.U]), V: int(perm[e.V])}.Normalize()] = true
	}
	return out
}
