package graph

// Canonical labeling and fingerprinting over the frozen CSR index.
//
// The scheme cache keys on graph isomorphism classes: a pebbling scheme
// depends only on the join graph's shape, so two requests with the same
// shape under different vertex numberings must hash to the same key.
// Canonicalize computes that key in three passes, in O((n + m +
// k log k)·rounds + h log n) time overall, where k is the number of
// distinct colors and h the number of frontier heap operations: one per
// vertex plus one per cell an assignment touches or opens, so O(n) on
// unions of complete bipartite graphs and O(n + m) at worst:
//
//  1. iterated WL-style color refinement to a fixed point — initial
//     colors are (degree, component order, component size) ranks, each
//     round replaces a vertex's color with a hash of (own color, sorted
//     neighbor colors) and re-ranks, stopping when the number of
//     distinct colors stops growing. A round is one counting sort of
//     the vertices by color and one sweep that folds each source's
//     color into its neighbors' running hashes in that order, so every
//     vertex receives its neighbor colors already sorted: O(n + m).
//     Re-ranking dedupes the n hashes in an open-addressing table and
//     sorts only the k distinct values: O(n + k log k);
//  2. a deterministic canonical relabeling: a greedy frontier order
//     that always assigns the minimum of (on-frontier, color,
//     assigned-neighborhood hash, id) next. A vertex is on the frontier
//     once a neighbor has a canonical id, and the hash term is an
//     order-independent combination of those assigned ids — so every
//     choice propagates into the keys of later candidates, and the
//     frontier rule keeps the order contiguous within a component, which
//     confines raw id tie-breaks to positions where the tied vertices
//     are interchangeable for the families the repo generates (spiders,
//     complete bipartite graphs, cycles, paths, matchings, and their
//     line graphs — see the package test corpus). The frontier is
//     partitioned into cells of vertices that share a color and a set of
//     assigned neighbors, and a min-heap orders the cells, so assigning
//     a vertex refines the partition by its neighbors (Paige–Tarjan
//     style: a cell that lies wholly in the neighborhood is re-keyed,
//     any other touched cell splits, and untouched neighbors open one
//     cell per color) at the cost of two walks of its sorted neighbors
//     and a heap operation per cell touched or opened. An empty
//     frontier takes the next untouched vertex from the color-sorted
//     list. The first walk also writes each edge's canonical key
//     straight to its place in the sorted edge list: O(n + m + h log n);
//  3. a 128-bit hash of that sorted canonical edge list (plus n and m):
//     O(m).
//
// Soundness is unconditional: equal canonical edge lists exhibit an
// isomorphism, so non-isomorphic graphs can only collide by hash
// accident (~2^-128), and the engine re-verifies every cached scheme
// against the simulator anyway. Completeness (isomorphic graphs always
// colliding) holds when every raw id tie-break lands on vertices that
// are automorphic given the assigned prefix — guaranteed for the
// structured families above and pinned by the permutation-invariance
// fuzz test. An arbitrary graph with WL-equivalent but non-automorphic
// vertices (rare outside adversarial constructions) may fingerprint
// differently under relabeling, which costs a cache miss, never a wrong
// hit.
//
// The refinement, ordering and hashing kernels carry the
// //joinpebble:hotpath contract and run entirely on CanonScratch
// buffers: one scratch reused across calls means the steady-state
// per-fingerprint allocation is the returned labeling alone.

import (
	"fmt"
	"slices"
)

// Fingerprint is a 128-bit canonical graph fingerprint: equal for
// isomorphic graphs of the generated families, distinct for
// non-isomorphic graphs up to hash collision.
type Fingerprint struct {
	Hi, Lo uint64
}

// String renders the fingerprint as 32 hex digits.
func (f Fingerprint) String() string {
	return fmt.Sprintf("%016x%016x", f.Hi, f.Lo)
}

// Mix folds extra words — a family kind hash, a planned solver's name
// hash — into the fingerprint, so structurally identical graphs
// presented under different predicate families key separately. Callers pass literal
// word lists, which escape analysis keeps on the stack.
//
//joinpebble:hotpath
func (f Fingerprint) Mix(words ...uint64) Fingerprint {
	for _, w := range words {
		f.Hi = mix64(f.Hi, w)
		f.Lo = mix64(f.Lo, w^0xA5A5A5A5A5A5A5A5)
	}
	return f
}

// CanonScratch holds the reusable buffers Canonicalize works in. One
// scratch serves any number of sequential calls on graphs of any size;
// buffers grow monotonically and are never returned to the allocator.
// Not safe for concurrent use — pool scratches per goroutine.
type CanonScratch struct {
	color    []uint32 // current color (dense rank) per vertex
	sig      []uint64 // signature hash per vertex, input to re-ranking
	sorted   []uint64 // the distinct signatures, sorted for rank assignment
	slotKey  []uint64 // signature per rank-table slot
	slotRank []int32  // rank per rank-table slot; 0 marks an empty slot while the table fills
	order    []int32  // vertices in (color, id) order
	count    []int    // counting-sort buckets, one per color plus one; then edge-key cursors per canonical id
	perm     []int32  // vertex -> canonical id
	ekeys    []uint64 // canonical edge keys in ascending order
	front    frontier // canonicalOrder's cells
}

// NewCanonScratch returns an empty scratch; buffers are sized on first
// use.
func NewCanonScratch() *CanonScratch { return &CanonScratch{} }

// grow sizes every buffer for an n-vertex, m-edge graph.
func (sc *CanonScratch) grow(n, m int) {
	slots := 2
	for slots < 2*n {
		slots <<= 1
	}
	if cap(sc.color) < n {
		sc.color = make([]uint32, n)
		sc.sig = make([]uint64, n)
		sc.sorted = make([]uint64, n)
		sc.slotKey = make([]uint64, slots)
		sc.slotRank = make([]int32, slots)
		sc.order = make([]int32, n)
		sc.count = make([]int, n+1)
		sc.perm = make([]int32, n)
		f := &sc.front
		f.cells = make([]cell, n)
		f.heap = make([]cellEnt, n)
		f.cellOf = make([]int32, n)
		f.colorCell = make([]int32, n)
		f.touched = make([]int32, n)
	}
	if cap(sc.ekeys) < m {
		sc.ekeys = make([]uint64, m)
		sc.front.members = make([]int32, m)
	}
	sc.color = sc.color[:n]
	sc.sig = sc.sig[:n]
	sc.sorted = sc.sorted[:n]
	sc.slotKey = sc.slotKey[:slots]
	sc.slotRank = sc.slotRank[:slots]
	sc.order = sc.order[:n]
	sc.count = sc.count[:n+1]
	sc.perm = sc.perm[:n]
	sc.ekeys = sc.ekeys[:m]
}

// Canonicalize computes the canonical labeling of g — perm[v] is the
// canonical id of vertex v — and the structural Fingerprint of the
// canonical edge list. The returned slice is freshly allocated (callers
// keep it to translate cached schemes); everything else runs in sc.
// Passing a nil scratch allocates a private one.
func Canonicalize(g *Graph, sc *CanonScratch) ([]int32, Fingerprint) {
	if sc == nil {
		sc = NewCanonScratch()
	}
	n, m := g.N(), g.M()
	if n == 0 {
		return nil, Fingerprint{Hi: mix64(canonSeedHi, 0), Lo: mix64(canonSeedLo, 0)}
	}
	c := &g.csr
	sc.grow(n, m)

	// Initial colors: (degree, component order, component size) ranks,
	// read off the graph's component decomposition. The component terms
	// separate same-degree vertices of structurally different components
	// up front (C4 ⊔ C6 is all degree 2), so the canonical order never
	// has to choose a root across non-isomorphic components.
	for ci := range g.ComponentCount() {
		verts, edges := g.Component(ci)
		h := mix64(mix64(canonSeedLo, uint64(len(verts))), uint64(len(edges)))
		for _, v := range verts {
			sc.sig[v] = mix64(mix64(canonSeedHi, uint64(c.degree(v))), h)
		}
	}
	distinct := rankColors(sc, n)

	// Iterated refinement to a fixed point: the distinct-color count is
	// strictly monotone until it stabilizes, so this runs at most n
	// rounds (2-3 in practice for the generated families). The last
	// round leaves the partition as it was but renumbers its colors, so
	// the order is sorted once more for canonicalOrder.
	for {
		sortByColor(sc, n, distinct)
		refinePass(c, sc, n)
		next := rankColors(sc, n)
		if next == distinct {
			break
		}
		distinct = next
	}
	sortByColor(sc, n, distinct)

	canonicalOrder(c, sc, n)
	fp := edgeListFingerprint(sc, n, m)
	perm := make([]int32, n)
	copy(perm, sc.perm)
	return perm, fp
}

const (
	canonSeedHi = 0x9E3779B97F4A7C15
	canonSeedLo = 0xC2B2AE3D27D4EB4F
)

// mix64 folds x into the running hash h (splitmix64 finalizer).
//
//joinpebble:hotpath
func mix64(h, x uint64) uint64 {
	h ^= x + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 29
	h *= 0x94D049BB133111EB
	h ^= h >> 32
	return h
}

// sortByColor fills sc.order with the n vertices in (color, id) order:
// one stable counting sort over the k dense color ranks.
//
//joinpebble:hotpath
func sortByColor(sc *CanonScratch, n, k int) {
	cnt := sc.count[:k+1]
	clear(cnt)
	for v := 0; v < n; v++ {
		cnt[sc.color[v]+1]++
	}
	for i := 1; i < k; i++ {
		cnt[i] += cnt[i-1]
	}
	for v := 0; v < n; v++ {
		col := sc.color[v]
		sc.order[cnt[col]] = int32(v)
		cnt[col]++
	}
}

// refinePass computes each vertex's next signature: its own color, then
// its neighbors' colors in ascending order, folded by mix64. Walking the
// sources in sc.order (ascending color) and folding each source's color
// into every neighbor's running hash delivers each vertex its neighbor
// colors already sorted, so no per-vertex sort is needed.
//
//joinpebble:hotpath
func refinePass(c *csr, sc *CanonScratch, n int) {
	for v := 0; v < n; v++ {
		sc.sig[v] = mix64(canonSeedHi, uint64(sc.color[v]))
	}
	for _, u := range sc.order[:n] {
		cu := uint64(sc.color[u])
		for _, w := range c.vert[c.start[u]:c.start[u+1]] {
			sc.sig[w] = mix64(sc.sig[w], cu)
		}
	}
}

// rankColors replaces sc.sig's hash values with dense ranks in sc.color
// and returns the number of distinct values. Ranks are assigned by
// sorted hash order, which is label-independent, so the refinement
// stays isomorphism-invariant. A linear-probing table of at least 2n
// slots, indexed by the hash's low bits (the hashes are mix64 outputs),
// dedupes the signatures, so only the k distinct values are sorted; a
// vertex holds its table slot in sc.color until the slots hold ranks.
//
//joinpebble:hotpath
func rankColors(sc *CanonScratch, n int) int {
	mask := uint64(len(sc.slotKey) - 1)
	clear(sc.slotRank)
	k := 0
	for v := 0; v < n; v++ {
		h := sc.sig[v]
		s := h & mask
		for sc.slotRank[s] != 0 && sc.slotKey[s] != h {
			s = (s + 1) & mask
		}
		if sc.slotRank[s] == 0 {
			sc.slotKey[s], sc.slotRank[s] = h, 1
			sc.sorted[k] = h
			k++
		}
		sc.color[v] = uint32(s)
	}
	ranks := sc.sorted[:k]
	slices.Sort(ranks)
	// Every slot on a value's probe path was filled before the value
	// was, so the first slot holding the value is its own.
	for r, h := range ranks {
		s := h & mask
		for sc.slotKey[s] != h {
			s = (s + 1) & mask
		}
		sc.slotRank[s] = int32(r)
	}
	for v := 0; v < n; v++ {
		sc.color[v] = uint32(sc.slotRank[sc.color[v]])
	}
	return k
}

// cell is one class of the frontier partition: the unassigned vertices
// that share a color and a set of assigned neighbors, hence a frontier
// key up to the id. Its members lie ascending in frontier.members from
// head on; a slot whose vertex has since been assigned or moved to
// another cell is dead and skipped. Its key is in its heap entry.
type cell struct {
	head  int32 // members slot of the least live member; once emptied, the next free cell
	live  int32 // live members
	hits  int32 // live members adjacent to the vertex being assigned
	split int32 // cell taking those members when not all live members are hit, else -1
	slot  int32 // heap slot, -1 until pushed
}

// cellEnt is a cell's heap entry, ordered by (color, sig, least).
type cellEnt struct {
	sig   uint64 // xor of mix64(canonSeedLo, id+1) over the members' assigned neighbors
	color uint32
	least int32 // least live member
	cell  int32
}

// frontier holds canonicalOrder's cells in buffers a CanonScratch
// reuses. Live cells never outnumber frontier vertices, so n cell ids
// suffice when emptied ones are reused, and a member slot is handed out
// only when an assignment adds its first assigned neighbor to a vertex
// or moves it to a new cell, at most once per edge.
type frontier struct {
	cells     []cell    // cells by id
	heap      []cellEnt // binary min-heap of the live cells
	members   []int32   // member slots, handed out in ranges
	cellOf    []int32   // cell per vertex, -1 until the vertex joins the frontier
	colorCell []int32   // new cell of the assigned vertex's untouched neighbors per color, else -1
	touched   []int32   // cells the assigned vertex's neighbors lie in or start
	size      int       // heap entries
	next      int32     // cell ids handed out so far
	free      int32     // most recently emptied cell, -1 if none
	top       int32     // member slots handed out so far
}

// canonicalOrder assigns canonical ids in sc.perm, one vertex at a
// time: the least frontier vertex when the frontier is not empty, else
// the least untouched vertex in (color, id) order, which is the first
// unassigned entry of sc.order. A vertex joins the frontier when its
// first neighbor is assigned, so an untouched vertex never outranks a
// frontier one and the order stays contiguous within a component.
//
// A frontier vertex's key is (color, xor of mix64 over its assigned
// neighbors' canonical ids, id). A cell's members share all of it but
// the id, so the heap's least cell, keyed by its least live member,
// holds the least frontier vertex even when two cells' hashes collide.
// Ties that reach the id are between vertices with identical color and
// identical assigned neighborhoods — automorphic in the generated
// families, so the id choice cannot change the canonical edge list.
//
// An edge's key holds its smaller canonical id high and its larger low.
// Ids are assigned in order, so the key is written when the later
// endpoint is assigned, after every key with the same high word and a
// lower low word, into the bucket of its high word, which opened past
// the buckets before it, sized to the edges its vertex had left to
// later vertices. sc.ekeys ends up sorted with no sort.
//
//joinpebble:hotpath
func canonicalOrder(c *csr, sc *CanonScratch, n int) {
	f := &sc.front
	for v := 0; v < n; v++ {
		sc.perm[v] = -1
		f.cellOf[v] = -1
		f.colorCell[v] = -1
	}
	f.size, f.next, f.free, f.top = 0, 0, -1, 0
	untouched, bucket := 0, 0
	for id := 0; id < n; id++ {
		var v int32
		if f.size > 0 {
			v = f.pop(sc)
		} else {
			for sc.perm[sc.order[untouched]] >= 0 {
				untouched++
			}
			v = sc.order[untouched]
		}
		sc.perm[v] = int32(id)
		span := c.sortedVert[c.start[v]:c.start[v+1]]
		sc.count[id] = bucket
		bucket += len(span) - f.assign(sc, span, id)
	}
}

// pop takes the least frontier vertex, the least live member of the
// heap's root cell, out of its cell.
//
//joinpebble:hotpath
func (f *frontier) pop(sc *CanonScratch) int32 {
	root := f.heap[0]
	cl := &f.cells[root.cell]
	if cl.live--; cl.live == 0 {
		f.remove(root.cell)
	} else {
		cl.head++
		f.heap[0].least = f.advance(sc, root.cell)
		f.down(0)
	}
	return root.least
}

// assign refines the frontier by the neighbors of the vertex just given
// canonical id, whose neighbor-sorted span is span, and returns how many
// of them were assigned before it. The first walk of the span writes
// the key of each edge to an assigned neighbor at its bucket's cursor,
// counts the hits on each touched cell and opens one cell per color for
// the untouched neighbors. A cell whose live members are all hit is
// then re-keyed in place; any other touched cell gives its hit members
// to a new cell. The second walk, descending, fills the new cells'
// ranges from the top, so members stay ascending.
//
//joinpebble:hotpath
func (f *frontier) assign(sc *CanonScratch, span []int, id int) (assigned int) {
	mix := mix64(canonSeedLo, uint64(id)+1)
	nt, moves := 0, false
	for _, w := range span {
		if a := sc.perm[w]; a >= 0 {
			sc.ekeys[sc.count[a]] = uint64(a)<<32 | uint64(id)
			sc.count[a]++
			assigned++
			continue
		}
		ci := f.cellOf[w]
		if ci < 0 {
			moves = true
			col := sc.color[w]
			if ci = f.colorCell[col]; ci < 0 {
				ci = f.open()
				f.colorCell[col] = ci
				f.touched[nt] = ci
				nt++
			}
		} else if f.cells[ci].hits == 0 {
			f.touched[nt] = ci
			nt++
		}
		f.cells[ci].hits++
	}

	for _, ci := range f.touched[:nt] {
		cl := &f.cells[ci]
		switch {
		case cl.slot < 0: // a cell of untouched neighbors
			f.top += cl.hits
			cl.head, cl.live = f.top, cl.hits
		case cl.hits < cl.live:
			moves = true
			to := f.open()
			f.top += cl.hits
			f.cells[to].head, f.cells[to].live = f.top, cl.hits
			cl.live -= cl.hits
			cl.split = to
		}
	}
	if moves {
		for k := len(span) - 1; k >= 0; k-- {
			w := span[k]
			if sc.perm[w] >= 0 {
				continue
			}
			to := f.cellOf[w]
			if to < 0 {
				to = f.colorCell[sc.color[w]]
			} else if to = f.cells[to].split; to < 0 {
				continue
			}
			f.cells[to].head--
			f.members[f.cells[to].head] = int32(w)
			f.cellOf[w] = to
		}
	}

	for _, ci := range f.touched[:nt] {
		cl := &f.cells[ci]
		cl.hits = 0
		switch {
		case cl.slot < 0:
			least := f.members[cl.head]
			col := sc.color[least]
			f.colorCell[col] = -1
			f.push(cellEnt{sig: mix, color: col, least: least, cell: ci})
		case cl.split >= 0:
			e := &f.heap[cl.slot]
			moved := cellEnt{sig: e.sig ^ mix, color: e.color, least: f.members[f.cells[cl.split].head], cell: cl.split}
			e.least = f.advance(sc, ci)
			f.down(int(cl.slot))
			f.push(moved)
			cl.split = -1
		default:
			f.heap[cl.slot].sig ^= mix
			f.fix(int(cl.slot))
		}
	}
	return assigned
}

// open starts an empty cell, reusing the most recently emptied cell id
// when there is one, and returns its id.
//
//joinpebble:hotpath
func (f *frontier) open() int32 {
	ci := f.free
	if ci >= 0 {
		f.free = f.cells[ci].head
	} else {
		ci = f.next
		f.next++
	}
	f.cells[ci] = cell{split: -1, slot: -1}
	return ci
}

// advance moves cell ci's head past its dead slots and returns its
// least live member; ci has one.
//
//joinpebble:hotpath
func (f *frontier) advance(sc *CanonScratch, ci int32) int32 {
	cl := &f.cells[ci]
	for {
		w := f.members[cl.head]
		if sc.perm[w] < 0 && f.cellOf[w] == ci {
			return w
		}
		cl.head++
	}
}

// less orders cell entries by (color, sig, least live member).
//
//joinpebble:hotpath
func (e cellEnt) less(o cellEnt) bool {
	if e.color != o.color {
		return e.color < o.color
	}
	if e.sig != o.sig {
		return e.sig < o.sig
	}
	return e.least < o.least
}

// push adds a cell's entry to the heap.
//
//joinpebble:hotpath
func (f *frontier) push(e cellEnt) {
	f.size++
	f.up(e, f.size-1)
}

// remove takes cell ci, the heap's root and now empty, off the heap and
// frees its id. The hole at the root walks down the lesser children to
// a leaf, one comparison per level, and the last entry fills it from
// there: it usually belongs near the bottom, so sifting it down from the
// root would cost two comparisons per level.
//
//joinpebble:hotpath
func (f *frontier) remove(ci int32) {
	f.size--
	i := 0
	for {
		s := 2*i + 1
		if s >= f.size {
			break
		}
		if r := s + 1; r < f.size && f.heap[r].less(f.heap[s]) {
			s = r
		}
		f.heap[i] = f.heap[s]
		f.cells[f.heap[i].cell].slot = int32(i)
		i = s
	}
	if i < f.size {
		f.up(f.heap[f.size], i)
	}
	f.cells[ci].head = f.free
	f.free = ci
}

// fix restores the heap order after the key at slot i changed.
//
//joinpebble:hotpath
func (f *frontier) fix(i int) {
	if i > 0 && f.heap[i].less(f.heap[(i-1)/2]) {
		f.up(f.heap[i], i)
	} else {
		f.down(i)
	}
}

// up places e at slot i or, past every parent it beats, nearer the
// root, shifting those parents down.
//
//joinpebble:hotpath
func (f *frontier) up(e cellEnt, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(f.heap[p]) {
			break
		}
		f.heap[i] = f.heap[p]
		f.cells[f.heap[i].cell].slot = int32(i)
		i = p
	}
	f.heap[i] = e
	f.cells[e.cell].slot = int32(i)
}

// down moves the entry at slot i toward the leaves past every child
// that beats it.
//
//joinpebble:hotpath
func (f *frontier) down(i int) {
	e := f.heap[i]
	for {
		s := 2*i + 1
		if s >= f.size {
			break
		}
		if r := s + 1; r < f.size && f.heap[r].less(f.heap[s]) {
			s = r
		}
		if !f.heap[s].less(e) {
			break
		}
		f.heap[i] = f.heap[s]
		f.cells[f.heap[i].cell].slot = int32(i)
		i = s
	}
	f.heap[i] = e
	f.cells[e.cell].slot = int32(i)
}

// edgeListFingerprint hashes the canonical edge list, which
// canonicalOrder leaves sorted in sc.ekeys, plus the graph's order and
// size into 128 bits.
//
//joinpebble:hotpath
func edgeListFingerprint(sc *CanonScratch, n, m int) Fingerprint {
	hi := mix64(canonSeedHi, uint64(n))
	lo := mix64(canonSeedLo, uint64(n))
	hi = mix64(hi, uint64(m))
	lo = mix64(lo, uint64(m))
	for _, k := range sc.ekeys[:m] {
		hi = mix64(hi, k)
		lo = mix64(lo, k^0x5BF0_3635_DEAD_BEEF)
	}
	return Fingerprint{Hi: hi, Lo: lo}
}
