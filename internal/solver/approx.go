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
	cWalkCertified = obs.ScopedCounter("solver/walk/certified")
)

// Approx125 is the Theorem 3.1 / Lemma 3.1 rung: for a connected
// component with m edges it finds a pebbling scheme of effective cost at
// most m + floor((m−1)/4) — the paper's 1.25m bound (exactly 1.25m−1
// when 4 divides m) — in time linear in the component.
//
// Each component first runs a greedy walk over the line graph (see
// lineWalk). When the walk's jumps equal the leaf-deficit lower bound of
// Theorem 3.3's proof — zero for a perfect walk — no tour does better,
// and the walk is returned at once. Otherwise the rung also runs the
// construction below and keeps it unless the walk has strictly fewer
// jumps, so no component costs more than the construction does alone,
// and the bound holds whichever order is kept. Both counts are checked
// at run time: a walk below its lower bound, or a kept order above
// floor((m−1)/4) jumps, is an error.
//
// The construction is the constructive proof itself. It partitions the
// vertices of the (claw-free) line graph into vertex-disjoint paths, all
// but the last of size at least 4, in three steps:
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
	// experiment — and the walk, so the rung runs the construction alone.
	// Without twin elimination the stripped subtree need not be a path
	// and the construction legitimately fails on some inputs (Solve
	// returns an error); never set it outside experiments.
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
	m := cg.M()
	var walk []int
	walkJumps := m // more jumps than any order has
	if !skipTwins {
		var bound int
		walk, walkJumps, bound = walkComponent(sp, cg)
		if walkJumps < bound {
			return nil, fmt.Errorf("solver: walk has %d jumps, below the lower bound %d", walkJumps, bound)
		}
		if walkJumps == bound {
			cWalkCertified.Inc(ctx)
			return withinThm31(walk, walkJumps, m)
		}
	}
	partStart := obs.Now()
	partSpan := sp.Start("path_partition")
	order, pieces, err := pathPartition(cg, skipTwins)
	partSpan.End()
	tPathPartition.Observe(ctx, obs.Since(partStart))
	if err != nil {
		return nil, err
	}
	cPathPieces.Add(ctx, int64(len(pieces)))
	partSpan.SetInt("pieces", int64(len(pieces)))
	jumps := core.EdgeOrderCost(cg, order) - 1 - m // π̂ = 1 + m + J
	if walkJumps < jumps {
		order, jumps = walk, walkJumps
	}
	return withinThm31(order, jumps, m)
}

// withinThm31 returns order if its jumps keep the component within
// Theorem 3.1's m + ⌊(m−1)/4⌋, and an error otherwise: a violation
// surfaces rather than ships as a silent quality regression.
func withinThm31(order []int, jumps, m int) ([]int, error) {
	if jumps > (m-1)/4 {
		return nil, fmt.Errorf("solver: order over %d edges has %d jumps, above Thm 3.1's %d", m, jumps, (m-1)/4)
	}
	return order, nil
}

// walkComponent runs the greedy walk over L(cg), cg connected, under a
// "walk" span. It returns the walk's edge order, its jumps, and the
// leaf-deficit lower bound on the jumps of any tour of L(cg): the walk
// is optimal when the two are equal.
func walkComponent(sp *obs.Span, cg *graph.Graph) (order []int, jumps, bound int) {
	ws := sp.Start("walk")
	var w lineWalk
	bound = w.init(cg)
	jumps = w.run()
	ws.SetInt("jumps", int64(jumps))
	ws.End()
	return w.order, jumps, bound
}

// lineWalk is a greedy trail over L(g) read off g's incident-edge spans,
// with no line graph built. From the current edge it continues at the
// endpoint with fewer unvisited edges, or failing that at the other one,
// taking the endpoint's first unvisited edge; when both endpoints are
// exhausted it jumps to a vertex with the fewest unvisited edges. A
// bucket queue keyed by remaining degree finds that vertex in O(1), and
// one forward-only cursor per vertex finds each next edge, so the walk
// is O(|V(g)| + |E(g)|). Every slice is carved from one allocation.
//
// Restarting at a vertex of least remaining degree starts each trail at
// a leaf of what is left where there is one, and continuing at the
// scarcer endpoint uses up a vertex's last edges before they are
// stranded. Neither makes the walk optimal, so the rung keeps Theorem
// 3.1's construction as its fallback.
type lineWalk struct {
	g     *graph.Graph
	order []int // the walk, order[:k] taken
	k     int
	seen  []int // per edge: 1 once taken
	rem   []int // per vertex: incident edges not yet taken
	cur   []int // per vertex: every incident edge before this span position is taken
	vert  []int // the vertices in ascending rem order
	pos   []int // position of each vertex in vert
	bin   []int // bin[d]: position in vert of the first vertex with rem d
}

// init sizes the arena for g, fills the bucket queue and returns the
// leaf-deficit lower bound from Theorem 3.3's proof: in a tour of L(g)
// each city has at most min(deg, 2) good incidences, the two ends one
// each and every other city two, so 2J >= Σ_e max(0, 2 − deg_L(e)) − 2,
// where edge (u,v) has line-graph degree deg u + deg v − 2. L(g) of a
// connected g is connected, so no component term applies.
func (w *lineWalk) init(g *graph.Graph) (bound int) {
	n, m := g.N(), g.M()
	buf := make([]int, 2*m+5*n+1)
	w.g = g
	w.order, buf = buf[:m:m], buf[m:]
	w.seen, buf = buf[:m:m], buf[m:]
	w.rem, buf = buf[:n:n], buf[n:]
	w.cur, buf = buf[:n:n], buf[n:]
	w.vert, buf = buf[:n:n], buf[n:]
	w.pos, w.bin = buf[:n:n], buf[n:] // bin has n+1 slots: degrees 0..n
	for v := range w.rem {
		d := g.Degree(v)
		w.rem[v] = d
		w.bin[d]++
	}
	// Counting sort of the vertices by degree: bin[d] ends at the first
	// position past bucket d, then shifts down to its first position.
	for d := 1; d < len(w.bin); d++ {
		w.bin[d] += w.bin[d-1]
	}
	for v := n - 1; v >= 0; v-- {
		d := w.rem[v]
		w.bin[d]--
		w.pos[v] = w.bin[d]
		w.vert[w.bin[d]] = v
	}
	deficit := -2
	for i := 0; i < m; i++ {
		e := g.EdgeAt(i)
		if d := w.rem[e.U] + w.rem[e.V] - 2; d < 2 {
			deficit += 2 - d
		}
	}
	if deficit > 0 {
		bound = (deficit + 1) / 2
	}
	return bound
}

// run walks every edge and returns the number of jumps, one per trail
// after the first. A new trail's first edge has no endpoint on the
// previous edge (both of those are exhausted), so every restart is a
// jump and no continuation is.
//
//joinpebble:hotpath
func (w *lineWalk) run() (jumps int) {
	for w.k < len(w.order) {
		if w.k > 0 {
			jumps++
		}
		u, v := w.take(w.vert[w.bin[1]])
		for {
			x := u
			if ru, rv := w.rem[u], w.rem[v]; rv > 0 && (ru == 0 || rv < ru) {
				x = v
			}
			if w.rem[x] == 0 {
				break
			}
			u, v = w.take(x)
		}
	}
	return jumps
}

// take appends x's first unvisited edge to the walk and returns its
// endpoints; x must have one.
//
//joinpebble:hotpath
func (w *lineWalk) take(x int) (u, v int) {
	inc := w.g.IncidentEdges(x)
	i := w.cur[x]
	for w.seen[inc[i]] != 0 {
		i++
	}
	w.cur[x] = i + 1
	e := inc[i]
	w.seen[e] = 1
	w.order[w.k] = e
	w.k++
	ed := w.g.EdgeAt(e)
	w.drop(ed.U)
	w.drop(ed.V)
	return ed.U, ed.V
}

// drop moves v from bucket rem[v] to bucket rem[v]−1: v swaps places
// with the first vertex of its bucket, which then starts one later.
//
//joinpebble:hotpath
func (w *lineWalk) drop(v int) {
	d := w.rem[v]
	w.rem[v] = d - 1
	q := w.bin[d]
	w.bin[d] = q + 1
	if p := w.pos[v]; p != q {
		u := w.vert[q]
		w.vert[p], w.pos[u] = u, p
		w.vert[q], w.pos[v] = v, q
	}
}

// pathPartition splits the vertices of L(cg), cg connected, into
// vertex-disjoint paths, all of size >= 4 except possibly the last. It
// builds one DFS tree and strips pieces in one post-order sweep (see
// Approx125). Its only line-graph question, in twin elimination and the
// final remainder, is whether two edges share an endpoint. The pieces
// are laid end to end in order, a visit order over every edge of cg,
// and each piece is a window of it.
func pathPartition(cg *graph.Graph, skipTwins bool) (order []int, pieces [][]int, err error) {
	t := newSpanTree(cg)
	m := cg.M()
	order = t.order
	pieces = make([][]int, 0, m/4+1)
	visited, covered := 0, 0
	for {
		v, ok := t.next()
		if !ok {
			return nil, nil, fmt.Errorf("solver: node %d has > 2 children in claw-free DFS tree", v)
		}
		if v < 0 {
			break
		}
		visited++
		if t.settle(v) < 4 {
			continue
		}
		if !skipTwins {
			if err := t.eliminateTwinsBelow(v); err != nil {
				return nil, nil, err
			}
		}
		path, err := t.subtreeAsPath(order[covered:covered], v)
		if err != nil {
			return nil, nil, err
		}
		if p := t.parent[v]; p >= 0 {
			t.removeChild(p, v)
		}
		pieces = append(pieces, path)
		covered += len(path)
	}
	if visited != m {
		return nil, nil, fmt.Errorf("solver: line graph is disconnected: DFS reached %d of %d vertices", visited, m)
	}
	if rest := m - covered; rest > 0 {
		// Fewer than 4 vertices remain, all under the root. Search them
		// in ascending order, as the rebuild loop did.
		verts := t.appendSubtree(order[covered:covered], 0)
		slices.Sort(verts)
		path, ok := hamPathSmall(cg, verts)
		if !ok {
			return nil, nil, fmt.Errorf("solver: connected remainder of size %d has no Hamiltonian path", rest)
		}
		pieces = append(pieces, path)
	}
	return order, pieces, nil
}

// spanTree is the DFS spanning tree of L(g) rooted at line-graph vertex
// 0, with the state the strip sweep keeps per node, and the order the
// stripped pieces are written to. Every slice is sized once per
// component, and the int slices share one allocation.
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
	order  []int // the stripped pieces, end to end
}

func newSpanTree(g *graph.Graph) *spanTree {
	n := g.M()
	buf := make([]int, 4*n+g.N())
	t := &spanTree{
		g:    g,
		kids: make([][2]int32, n),
		nkid: make([]uint8, n),
	}
	t.parent, buf = buf[:n:n], buf[n:]
	t.size, buf = buf[:n:n], buf[n:]
	t.stack, buf = buf[:n:n], buf[n:]
	t.order, t.cur = buf[:n:n], buf[n:]
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
// endpoint's. Visited edges stay visited, so one forward-only cursor per
// base vertex finds it and the whole walk is O(|V(g)| + |E(g)|). ok is
// false, with v the parent, when a third child would overflow the slots
// (impossible on a line graph, which is claw-free).
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
func (t *spanTree) eliminateTwinsBelow(r int) error {
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
		if err := t.rehangTwins(p, int(t.kids[p][0]), int(t.kids[p][1])); err != nil {
			return err
		}
	}
	return nil
}

// rehangTwins resolves the twins l1, l2 (in slot order) of p by the
// re-hanging argument in the paper, along a line-graph edge whose
// existence claw-freeness guarantees. The three vertices stay one
// subtree in the place p held, and no new twins appear.
func (t *spanTree) rehangTwins(p, l1, l2 int) error {
	if t.adjacent(l1, l2) {
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
	if !t.adjacent(l1, g) {
		l1, l2 = l2, l1
	}
	if !t.adjacent(l1, g) {
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

// adjacent reports whether the distinct line-graph vertices i and j are
// adjacent: their edges share an endpoint (§2.2).
func (t *spanTree) adjacent(i, j int) bool {
	return t.g.EdgeAt(i).SharesEndpoint(t.g.EdgeAt(j))
}

// subtreeAsPath linearizes the subtree rooted at r, which after twin
// elimination is a path-shaped tree: r has at most two children and each
// child subtree is a downward chain (a 3-node chain is the largest
// possible, since r is the lowest node with >= 4 descendants). It
// appends the vertex sequence, a path in the line graph, to out, which
// must be empty; with capacity for size[r] vertices, out never
// reallocates.
func (t *spanTree) subtreeAsPath(out []int, r int) ([]int, error) {
	// chain walks the downward chain from start, appending to out.
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

// hamPathSmall finds a Hamiltonian path of L(cg) over the <= 3 distinct
// edges in perm (any connected graph on at most 3 vertices has one) by
// brute force, permuting perm in place and trying start vertices and
// extensions in the order it lists them.
func hamPathSmall(cg *graph.Graph, perm []int) ([]int, bool) {
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(perm) {
			return true
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if cg.EdgeAt(perm[k-1]).SharesEndpoint(cg.EdgeAt(perm[k])) && rec(k+1) {
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
	label, ncomp := g.ComponentLabels()
	counts := make([]int, ncomp)
	for i := 0; i < g.M(); i++ {
		counts[label[g.EdgeAt(i).U]]++
	}
	return counts
}
