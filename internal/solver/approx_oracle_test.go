package solver

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"joinpebble/internal/family"
	"joinpebble/internal/graph"
)

// rebuildPartition is the textbook form of pathPartition, kept as its
// differential oracle: after every strip it rebuilds the DFS tree of the
// remaining line graph from the lowest remaining vertex, neighbors in
// appendLineNeighbors order, eliminates twins across the whole tree,
// smallest parent index first, and strips the lowest subtree with >= 4
// vertices. That is O(m·|E(L)|) per component. It shares the twin
// re-hang, the subtree linearization and the small remainder search with
// pathPartition.
func rebuildPartition(cg *graph.Graph, skipTwins bool) ([][]int, error) {
	n := cg.M()
	t := &rebuildTree{
		spanTree: spanTree{
			g:      cg,
			parent: make([]int, n),
			kids:   make([][2]int32, n),
			nkid:   make([]uint8, n),
			size:   make([]int, n),
		},
		alive:  make([]bool, n),
		order:  make([]int, n),
		frames: make([]dfsFrame, n),
	}
	aliveCount := n
	for v := range t.alive {
		t.alive[v] = true
	}
	var pieces [][]int
	for aliveCount > 0 {
		root := slices.Index(t.alive, true)
		if aliveCount < 4 {
			var verts []int
			for v, ok := range t.alive {
				if ok {
					verts = append(verts, v)
				}
			}
			path, ok := hamPathSmall(cg, verts)
			if !ok {
				return nil, fmt.Errorf("solver: connected remainder of size %d has no Hamiltonian path", aliveCount)
			}
			pieces = append(pieces, path)
			break
		}
		if err := t.rebuild(root); err != nil {
			return nil, err
		}
		if !skipTwins {
			if err := t.eliminateTwins(); err != nil {
				return nil, err
			}
		}
		path, err := t.subtreeAsPath(nil, t.lowestBigSubtree(4))
		if err != nil {
			return nil, err
		}
		for _, v := range path {
			t.alive[v] = false
			aliveCount--
		}
		pieces = append(pieces, path)
	}
	return pieces, nil
}

// dfsFrame is one rebuild DFS stack entry: vertex v with its neighbor
// span [base, end) in nb, next being the scan cursor within the span.
type dfsFrame struct{ v, base, end, next int }

// rebuildTree is a spanning tree over the alive vertices of L(g),
// rebuilt from scratch for every strip.
type rebuildTree struct {
	spanTree
	root   int
	alive  []bool
	order  []int      // preorder scratch for subtreeSizes
	frames []dfsFrame // DFS frames for rebuild
	nb     []int      // DFS neighbor scratch, stack-disciplined spans
}

// rebuild runs DFS over the alive vertices from root, replacing the
// previous tree.
func (t *rebuildTree) rebuild(root int) error {
	t.root = root
	for i := range t.parent {
		t.parent[i] = -2
		t.nkid[i] = 0
	}
	t.parent[root] = -1
	t.nb = appendLineNeighbors(t.nb[:0], t.g, root)
	t.frames[0] = dfsFrame{v: root, base: 0, end: len(t.nb), next: 0}
	sp := 1
	for sp > 0 {
		f := &t.frames[sp-1]
		advanced := false
		for f.next < f.end {
			w := t.nb[f.next]
			f.next++
			if t.alive[w] && t.parent[w] == -2 {
				t.parent[w] = f.v
				if !t.addChild(f.v, w) {
					return fmt.Errorf("solver: node %d has > 2 children in claw-free DFS tree", f.v)
				}
				base := len(t.nb)
				t.nb = appendLineNeighbors(t.nb, t.g, w)
				t.frames[sp] = dfsFrame{v: w, base: base, end: len(t.nb), next: base}
				sp++
				advanced = true
				break
			}
		}
		if !advanced {
			t.nb = t.nb[:f.base]
			sp--
		}
	}
	return nil
}

// appendLineNeighbors appends the line-graph neighbors of edge i of g
// to buf: the edges incident to its U endpoint, then to its V endpoint,
// in incident-edge order, without i. No edge is listed twice, since an
// edge sharing both endpoints with i would be i. This is the order
// pathPartition's DFS takes children in.
func appendLineNeighbors(buf []int, g *graph.Graph, i int) []int {
	e := g.EdgeAt(i)
	for _, x := range [2]int{e.U, e.V} {
		for _, f := range g.IncidentEdges(x) {
			if f != i {
				buf = append(buf, f)
			}
		}
	}
	return buf
}

// eliminateTwins resolves every pair of leaf siblings in the tree,
// smallest parent index first.
func (t *rebuildTree) eliminateTwins() error {
	for {
		p, l1, l2, found := t.findTwins()
		if !found {
			return nil
		}
		if err := t.rehangTwins(p, l1, l2); err != nil {
			return err
		}
	}
}

// findTwins returns the lowest-index parent with two leaf children, the
// twins in slot order.
func (t *rebuildTree) findTwins() (p, l1, l2 int, found bool) {
	for v := 0; v < len(t.parent); v++ {
		if t.parent[v] == -2 {
			continue
		}
		first := -1
		for c := 0; c < int(t.nkid[v]); c++ {
			w := int(t.kids[v][c])
			if t.nkid[w] != 0 {
				continue
			}
			if first < 0 {
				first = w
			} else {
				return v, first, w, true
			}
		}
	}
	return 0, 0, 0, false
}

// subtreeSizes fills the size table over the current tree.
func (t *rebuildTree) subtreeSizes() {
	for i := range t.size {
		t.size[i] = 0
	}
	t.order[0] = t.root
	cnt := 1
	for i := 0; i < cnt; i++ {
		v := t.order[i]
		for c := 0; c < int(t.nkid[v]); c++ {
			t.order[cnt] = int(t.kids[v][c])
			cnt++
		}
	}
	for i := cnt - 1; i >= 0; i-- {
		v := t.order[i]
		t.size[v]++
		if p := t.parent[v]; p >= 0 {
			t.size[p] += t.size[v]
		}
	}
}

// lowestBigSubtree returns a node with subtree size >= k all of whose
// children have subtree size < k, descending from the root through the
// first big child in slot order.
func (t *rebuildTree) lowestBigSubtree(k int) int {
	t.subtreeSizes()
	v := t.root
	for {
		descended := false
		for c := 0; c < int(t.nkid[v]); c++ {
			if w := int(t.kids[v][c]); t.size[w] >= k {
				v = w
				descended = true
				break
			}
		}
		if !descended {
			return v
		}
	}
}

// TestPathPartitionMatchesRebuildOracle pins the one-DFS sweep to the
// per-strip rebuild loop it replaced, on spiders 1–200, every standard
// family at sizes 1–60, and random connected bipartite, general and
// sparse multi-component graphs.
func TestPathPartitionMatchesRebuildOracle(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine differential test; the quadratic oracle is too slow under -race, so CI runs it without")
	}
	t.Run("spiders", func(t *testing.T) {
		t.Parallel()
		for n := 1; n <= 200; n++ {
			checkPartition(t, fmt.Sprintf("spider(%d)", n), family.Spider(n).Graph())
		}
	})
	for _, name := range family.All() {
		t.Run(string(name), func(t *testing.T) {
			t.Parallel()
			for size := 1; size <= 60; size++ {
				b, err := family.Build(name, size)
				if err != nil {
					t.Fatal(err)
				}
				checkPartition(t, fmt.Sprintf("%s(%d)", name, size), b.Graph())
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		t.Parallel()
		failures := 0
		approxOracleRandom(func(name string, g *graph.Graph) {
			failures += checkPartition(t, name, g)
		})
		if failures == 0 {
			t.Fatal("no component fails without twin elimination, so errors were never compared")
		}
	})
}

// approxOracleRandom calls fn on the random part of the oracle corpus:
// 3,000 connected bipartite graphs, 2,000 connected general graphs and
// 300 sparse multi-component graphs, all from one fixed seed.
func approxOracleRandom(fn func(name string, g *graph.Graph)) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 3000; i++ {
		nl, nr := 1+rng.Intn(9), 1+rng.Intn(9)
		lo, hi := nl+nr-1, nl*nr
		fn(fmt.Sprintf("bipartite#%d", i), graph.RandomConnectedBipartite(rng, nl, nr, lo+rng.Intn(hi-lo+1)).Graph())
	}
	for i := 0; i < 2000; i++ {
		n := 2 + rng.Intn(13)
		lo, hi := n-1, min(n*(n-1)/2, 3*n)
		fn(fmt.Sprintf("graph#%d", i), graph.RandomConnectedGraph(rng, n, lo+rng.Intn(hi-lo+1), 0))
	}
	for i := 0; i < 300; i++ {
		fn(fmt.Sprintf("multi#%d", i), multiComponentGraph(rng, 2+rng.Intn(5)))
	}
}

// checkPartition runs pathPartition and the oracle on every component
// of g, with and without twin elimination, and requires identical pieces
// and identical errors. With twin elimination neither may fail, and the
// component's approx-1.25 scheme must stay within Theorem 3.1's
// m + ⌊(m−1)/4⌋. It returns how many components fail without twin
// elimination.
func checkPartition(t *testing.T, name string, g *graph.Graph) (noTwinFailures int) {
	t.Helper()
	for ci, comp := range g.Components() {
		cg, _ := inducedSubgraph(g, comp)
		if cg.M() == 0 {
			continue
		}
		for _, skip := range []bool{false, true} {
			_, got, gotErr := pathPartition(new(spanTree), whole(cg), skip)
			want, wantErr := rebuildPartition(cg, skip)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s component %d skipTwins=%v: error %v, oracle %v", name, ci, skip, gotErr, wantErr)
			}
			if gotErr != nil {
				if !skip {
					t.Fatalf("%s component %d: %v", name, ci, gotErr)
				}
				noTwinFailures++
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s component %d skipTwins=%v: pieces\n%v\noracle\n%v", name, ci, skip, got, want)
			}
		}
		m := cg.M()
		_, cost, err := SolveAndVerify(context.Background(), Approx125{}, cg)
		if err != nil {
			t.Fatalf("%s component %d: %v", name, ci, err)
		}
		if pi := cost - 1; pi > m+(m-1)/4 {
			t.Fatalf("%s component %d: π=%d exceeds m+⌊(m−1)/4⌋ = %d", name, ci, pi, m+(m-1)/4)
		}
	}
	return noTwinFailures
}

// multiComponentGraph builds k random connected components glued into one
// graph, shuffling edge insertion so component edges interleave globally.
func multiComponentGraph(rng *rand.Rand, k int) *graph.Graph {
	type edge struct{ u, v int }
	var edges []edge
	base := 0
	for c := 0; c < k; c++ {
		n := 3 + rng.Intn(10)
		m := n - 1 + rng.Intn(n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		cg := graph.RandomConnectedGraph(rng, n, m, 0)
		for _, e := range cg.Edges() {
			edges = append(edges, edge{base + e.U, base + e.V})
		}
		base += n
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var gEdges []graph.Edge
	for _, e := range edges {
		gEdges = append(gEdges, graph.Edge{U: e.u, V: e.v})
	}
	return graph.New(base, gEdges)
}
