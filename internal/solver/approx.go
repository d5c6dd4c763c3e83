package solver

import (
	"context"
	"fmt"
	"slices"

	"joinpebble/internal/core"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
)

var (
	tPathPartition = obs.ScopedTimer("solver/phase/path_partition")
	cPathPieces    = obs.ScopedCounter("solver/approx/path_pieces")
)

// Approx125 implements the constructive proof of Theorem 3.1 / Lemma 3.1:
// for a connected component with m edges it finds a pebbling scheme of
// effective cost at most m + floor((m−1)/4) — the paper's 1.25m bound
// (exactly 1.25m−1 when 4 divides m) — in time linear in the component.
// It partitions the vertices of the (claw-free) line graph into
// vertex-disjoint paths, all but the last of size at least 4, in three
// steps:
//
//  1. one DFS tree of the line graph, rooted at line-graph vertex 0
//     (every node has at most two children, else three pairwise
//     non-adjacent children would form a claw with their parent). The DFS
//     walks the base graph's incident-edge spans with one forward-only
//     cursor per base vertex, so it costs O(|V| + m), not O(|E(L)|);
//  2. one post-order sweep keeping every node's remaining subtree size:
//     the subtree at each node whose remaining size reaches 4 is stripped
//     as a piece. Its children, visited first, kept fewer than 4 vertices
//     each, so a piece has at most 7;
//  3. before each strip, eliminating "twins" (two leaf children of one
//     parent) inside the stripped subtree by the re-hanging argument in
//     the paper: claw-freeness forces one twin to be adjacent to the
//     grandparent, so the twins can be re-hung into a chain, and the
//     stripped subtree becomes a path.
//
// The concatenated paths form a TSP tour with at most one jump per
// stripped piece, giving J <= floor((m−1)/4).
//
// The pieces are exactly those of the textbook loop that rebuilds the
// DFS tree from the lowest remaining vertex after every strip (kept as a
// test oracle). Vertex 0 is stripped only with the last piece, so every
// rebuild has the same root. Removing a whole subtree from a DFS tree
// leaves exactly the tree a fresh DFS from that root builds. The first
// node in post-order with >= 4 remaining vertices is the lowest such
// subtree the loop strips. And a twin re-hang rearranges only a subtree
// of 3 vertices, so it never changes which subtree is stripped.
type Approx125 struct {
	// SkipTwinElimination disables step 3 — an ablation knob for the E19
	// experiment. Without twin elimination the stripped subtree need not
	// be a path and the construction legitimately fails on some inputs
	// (Solve returns an error); never set it outside experiments.
	SkipTwinElimination bool
}

// The two display names, as constants so they can double as root span
// names (the obsnames analyzer requires constant span names).
const (
	nameApprox       = "approx-1.25"
	nameApproxNoTwin = "approx-1.25(no-twin-elim)"
)

// Name implements Solver.
func (a Approx125) Name() string {
	if a.SkipTwinElimination {
		return nameApproxNoTwin
	}
	return nameApprox
}

// Solve implements Solver.
func (a Approx125) Solve(ctx context.Context, g *graph.Graph) (core.Scheme, error) {
	fn := func(ctx context.Context, cg *graph.Graph, sp *obs.Span) ([]int, error) {
		return approxComponentOrder(ctx, cg, sp, a.SkipTwinElimination)
	}
	// Two literal call sites so the span name stays a compile-time
	// constant either way.
	if a.SkipTwinElimination {
		return solvePerComponent(ctx, g, nameApproxNoTwin, fn)
	}
	return solvePerComponent(ctx, g, nameApprox, fn)
}

func approxComponentOrder(ctx context.Context, cg *graph.Graph, sp *obs.Span, skipTwins bool) ([]int, error) {
	lgSpan := sp.Start("line_graph")
	lg := graph.NewLineGraphView(cg)
	lgSpan.End()
	partStart := obs.Now()
	partSpan := sp.Start("path_partition")
	pieces, err := pathPartition(cg, lg, skipTwins)
	partSpan.End()
	tPathPartition.Observe(ctx, obs.Since(partStart))
	if err != nil {
		return nil, err
	}
	cPathPieces.Add(ctx, int64(len(pieces)))
	partSpan.SetInt("pieces", int64(len(pieces)))
	order := make([]int, 0, cg.M())
	for _, p := range pieces {
		order = append(order, p...)
	}
	// Bound check: the construction promises all but the final piece have
	// >= 4 vertices. Surface a violation as an error rather than a silent
	// quality regression.
	for i, p := range pieces {
		if len(p) < 4 && i != len(pieces)-1 {
			return nil, fmt.Errorf("solver: internal piece %d has %d < 4 vertices", i, len(p))
		}
	}
	return order, nil
}

// pathPartition splits the vertices of L(cg), cg connected, into
// vertex-disjoint paths, all of size >= 4 except possibly the last. It
// builds one DFS tree and strips pieces in one post-order sweep (see
// Approx125); lg answers the adjacency tests of twin elimination and
// the final remainder.
func pathPartition(cg *graph.Graph, lg graph.Adjacency, skipTwins bool) ([][]int, error) {
	t := newSpanTree(cg)
	var pieces [][]int
	visited, covered := 0, 0
	for {
		v, ok := t.next()
		if !ok {
			return nil, fmt.Errorf("solver: node %d has > 2 children in claw-free DFS tree", v)
		}
		if v < 0 {
			break
		}
		visited++
		if t.settle(v) < 4 {
			continue
		}
		if !skipTwins {
			if err := t.eliminateTwinsBelow(lg, v); err != nil {
				return nil, err
			}
		}
		path, err := t.subtreeAsPath(v)
		if err != nil {
			return nil, err
		}
		if p := t.parent[v]; p >= 0 {
			t.removeChild(p, v)
		}
		pieces = append(pieces, path)
		covered += len(path)
	}
	if visited != cg.M() {
		return nil, fmt.Errorf("solver: line graph is disconnected: DFS reached %d of %d vertices", visited, cg.M())
	}
	if rest := cg.M() - covered; rest > 0 {
		// Fewer than 4 vertices remain, all under the root. Search them
		// in ascending order, as the rebuild loop did.
		verts := t.appendSubtree(make([]int, 0, rest), 0)
		slices.Sort(verts)
		path, ok := hamPathSmall(lg, verts)
		if !ok {
			return nil, fmt.Errorf("solver: connected remainder of size %d has no Hamiltonian path", rest)
		}
		pieces = append(pieces, path)
	}
	return pieces, nil
}

// spanTree is the DFS spanning tree of L(g) rooted at line-graph vertex
// 0, with the state the strip sweep keeps per node. Every slice is sized
// once per component; only the output pieces are allocated after that.
//
// Child lists exploit the claw-free DFS-tree invariant that no node ever
// has more than two children (three children are pairwise non-adjacent
// in a DFS tree and would form a claw with their parent; twin
// elimination's re-hangings only move children to leaves, preserving the
// bound), so they are fixed [2]int32 slots plus a fill count instead of
// per-node slices.
type spanTree struct {
	g      *graph.Graph
	parent []int      // -1 root, -2 not yet visited
	kids   [][2]int32 // child slots, in discovery order
	nkid   []uint8    // filled child slots per node
	size   []int      // remaining subtree size, set when a node's visit ends
	stack  []int      // DFS stack of line-graph vertices, stack[:sp] live
	sp     int
	cur    []int // per base vertex: every incident edge before this span position is visited
}

func newSpanTree(g *graph.Graph) *spanTree {
	g.Optimize() // IncidentEdges must be the CSR spans, the order LineGraphView lists neighbors in
	n := g.M()
	t := &spanTree{
		g:      g,
		parent: make([]int, n),
		kids:   make([][2]int32, n),
		nkid:   make([]uint8, n),
		size:   make([]int, n),
		stack:  make([]int, n),
		cur:    make([]int, g.N()),
	}
	for i := range t.parent {
		t.parent[i] = -2
	}
	if n > 0 {
		t.parent[0] = -1
		t.sp = 1
	}
	return t
}

// next advances the DFS until a node's visit ends and returns that node,
// or -1 once the walk is complete. A node's next child is the first
// unvisited edge in its U endpoint's incident-edge span, else in its V
// endpoint's: the first unvisited entry of LineGraphView.AppendNeighbors.
// Visited edges stay visited, so one forward-only cursor per base vertex
// finds it and the whole walk is O(|V(g)| + |E(g)|). ok is false, with v
// the parent, when a third child would overflow the slots (impossible on
// a line graph, which is claw-free).
//
//joinpebble:hotpath
func (t *spanTree) next() (v int, ok bool) {
	for t.sp > 0 {
		v = t.stack[t.sp-1]
		e := t.g.EdgeAt(v)
		w := t.unvisited(e.U)
		if w < 0 {
			w = t.unvisited(e.V)
		}
		if w < 0 {
			t.sp--
			return v, true
		}
		if !t.addChild(v, w) {
			return v, false
		}
		t.parent[w] = v
		t.stack[t.sp] = w
		t.sp++
	}
	return -1, true
}

// unvisited returns the first unvisited edge incident to base vertex x,
// or -1, moving x's cursor past the visited ones.
//
//joinpebble:hotpath
func (t *spanTree) unvisited(x int) int {
	inc := t.g.IncidentEdges(x)
	i := t.cur[x]
	for i < len(inc) && t.parent[inc[i]] != -2 {
		i++
	}
	t.cur[x] = i
	if i == len(inc) {
		return -1
	}
	return inc[i]
}

// settle records v's remaining subtree size once its visit has ended:
// its children's sizes are final by then, and stripped children are no
// longer in its slots. The first node in post-order to reach 4 is the
// lowest node with >= 4 remaining descendants.
//
//joinpebble:hotpath
func (t *spanTree) settle(v int) int {
	s := 1
	for c := 0; c < int(t.nkid[v]); c++ {
		s += t.size[t.kids[v][c]]
	}
	t.size[v] = s
	return s
}

// addChild appends c to p's child slots, reporting false on overflow
// (impossible while the line graph is claw-free — see spanTree).
//
//joinpebble:hotpath
func (t *spanTree) addChild(p, c int) bool {
	if t.nkid[p] >= 2 {
		return false
	}
	t.kids[p][t.nkid[p]] = int32(c)
	t.nkid[p]++
	return true
}

// removeChild detaches c from p's child slots, preserving slot order.
//
//joinpebble:hotpath
func (t *spanTree) removeChild(p, c int) {
	switch {
	case t.nkid[p] >= 1 && t.kids[p][0] == int32(c):
		t.kids[p][0] = t.kids[p][1]
		t.nkid[p]--
	case t.nkid[p] == 2 && t.kids[p][1] == int32(c):
		t.nkid[p]--
	default:
		panic("solver: removeChild: not a child")
	}
}

// eliminateTwinsBelow resolves the twins inside the subtree rooted at r,
// which is about to be stripped. Each child of r has fewer than 4
// remaining vertices, so the only possible twin parents are r's children
// with two (leaf) children. They are resolved smallest index first, the
// order a scan of the whole tree would take; twins outside the subtree
// are left alone, since a re-hang moves no vertex between subtrees of
// size >= 4 and so never changes which subtree is stripped.
func (t *spanTree) eliminateTwinsBelow(lg graph.Adjacency, r int) error {
	var ps [2]int
	n := 0
	for c := 0; c < int(t.nkid[r]); c++ {
		if p := int(t.kids[r][c]); t.nkid[p] == 2 {
			ps[n] = p
			n++
		}
	}
	if n == 2 && ps[1] < ps[0] {
		ps[0], ps[1] = ps[1], ps[0]
	}
	for _, p := range ps[:n] {
		if err := t.rehangTwins(lg, p, int(t.kids[p][0]), int(t.kids[p][1])); err != nil {
			return err
		}
	}
	return nil
}

// rehangTwins resolves the twins l1, l2 (in slot order) of p by the
// re-hanging argument in the paper, along an edge of lg whose existence
// claw-freeness guarantees. The three vertices stay one subtree in the
// place p held, and no new twins appear.
func (t *spanTree) rehangTwins(lg graph.Adjacency, p, l1, l2 int) error {
	if lg.HasEdge(l1, l2) {
		// Chain the twins: p — l1 — l2. The addChild targets are a leaf
		// (l1) and nodes that just lost a child, so the two-slot bound
		// cannot overflow here or in the re-hang below.
		t.removeChild(p, l2)
		t.parent[l2] = l1
		t.addChild(l1, l2)
		return nil
	}
	g := t.parent[p]
	if g < 0 {
		// p is the root with two non-adjacent leaf children and at most
		// two children total: the tree would have 3 vertices, but callers
		// only eliminate twins in trees over >= 4.
		return fmt.Errorf("solver: twin elimination hit root twins on a tree of size >= 4")
	}
	// Claw-freeness at p: {l1, l2, g} ⊆ N(p) cannot be pairwise
	// non-adjacent; l1-l2 was just ruled out, so one twin sees g.
	if !lg.HasEdge(l1, g) {
		l1, l2 = l2, l1
	}
	if !lg.HasEdge(l1, g) {
		return fmt.Errorf("solver: claw-free invariant violated at parent %d", p)
	}
	// Re-hang: g — l1 — p — l2 (remove tree edge (g,p), add (g,l1)).
	t.removeChild(g, p)
	t.removeChild(p, l1)
	t.parent[l1] = g
	t.addChild(g, l1)
	t.parent[p] = l1
	t.addChild(l1, p)
	return nil
}

// subtreeAsPath linearizes the subtree rooted at r, which after twin
// elimination is a path-shaped tree: r has at most two children and each
// child subtree is a downward chain (a 3-node chain is the largest
// possible, since r is the lowest node with >= 4 descendants). The
// returned vertex sequence is a path in the line graph, sized exactly
// from size[r].
func (t *spanTree) subtreeAsPath(r int) ([]int, error) {
	out := make([]int, 0, t.size[r])
	// chain walks the downward chain from start, appending to out; the
	// exact capacity above means the appends never reallocate.
	chain := func(start int) ([]int, error) {
		v := start
		for {
			out = append(out, v)
			switch t.nkid[v] {
			case 0:
				return out, nil
			case 1:
				v = int(t.kids[v][0])
			default:
				return nil, fmt.Errorf("solver: child subtree at %d is not a chain", v)
			}
		}
	}
	switch t.nkid[r] {
	case 0:
		return append(out, r), nil
	case 1:
		out = append(out, r)
		return chain(int(t.kids[r][0]))
	default:
		var err error
		out, err = chain(int(t.kids[r][0]))
		if err != nil {
			return nil, err
		}
		// Reverse a, then r, then b: leaf_a ... child_a r child_b ... leaf_b.
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		out = append(out, r)
		return chain(int(t.kids[r][1]))
	}
}

// appendSubtree appends the vertices of r's remaining subtree to out in
// preorder.
func (t *spanTree) appendSubtree(out []int, r int) []int {
	out = append(out, r)
	for c := 0; c < int(t.nkid[r]); c++ {
		out = t.appendSubtree(out, int(t.kids[r][c]))
	}
	return out
}

// hamPathSmall finds a Hamiltonian path over the <= 3 vertices in perm
// (any connected graph on at most 3 vertices has one) by brute force,
// permuting perm in place and trying start vertices and extensions in
// the order it lists them.
func hamPathSmall(lg graph.Adjacency, perm []int) ([]int, bool) {
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(perm) {
			return true
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if lg.HasEdge(perm[k-1], perm[k]) && rec(k+1) {
				return true
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return false
	}
	for i := 0; i < len(perm); i++ {
		perm[0], perm[i] = perm[i], perm[0]
		if rec(1) {
			return perm, true
		}
		perm[0], perm[i] = perm[i], perm[0]
	}
	return nil, false
}

// ApproxCostBound returns the Theorem 3.1 guarantee for g:
// sum over components of m_i + floor((m_i − 1)/4), plus β₀ startups.
func ApproxCostBound(g *graph.Graph) int {
	bound := 0
	for _, m := range componentEdgeCounts(g) {
		if m > 0 {
			bound += m + (m-1)/4 + 1
		}
	}
	return bound
}

// componentEdgeCounts returns the edge count of each component in one
// pass over the edge list.
func componentEdgeCounts(g *graph.Graph) []int {
	comps := g.Components()
	compID := make([]int, g.N())
	for ci, comp := range comps {
		for _, v := range comp {
			compID[v] = ci
		}
	}
	counts := make([]int, len(comps))
	for _, e := range g.Edges() {
		counts[compID[e.U]]++
	}
	return counts
}
