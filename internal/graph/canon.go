package graph

// Canonical labeling and fingerprinting over the frozen CSR index.
//
// The scheme cache keys on graph isomorphism classes: a pebbling scheme
// depends only on the join graph's shape, so two requests with the same
// shape under different vertex numberings must hash to the same key.
// Canonicalize computes that key in three passes, in O((n+m)·rounds +
// m log n) time overall:
//
//  1. iterated WL-style color refinement to a fixed point — initial
//     colors are (degree, component order, component size) ranks, each
//     round replaces a vertex's color with a hash of (own color, sorted
//     neighbor colors) and re-ranks, stopping when the number of
//     distinct colors stops growing. A round is one counting sort of
//     the vertices by color and one sweep that folds each source's
//     color into its neighbors' running hashes in that order, so every
//     vertex receives its neighbor colors already sorted: O(n + m),
//     plus O(n log n) to re-rank the n hashes;
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
//     line graphs — see the package test corpus). The frontier is an
//     indexed min-heap of at most n vertices, re-keyed in place when a
//     neighbor is assigned, and an empty frontier takes the next
//     untouched vertex from the color-sorted list: O(m log n);
//  3. a 128-bit hash of the sorted canonical edge list (plus n and m),
//     sorted by two stable counting passes over canonical ids: O(n + m).
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
// The refinement and hashing kernels carry the //joinpebble:hotpath
// contract and run entirely on CanonScratch buffers: one scratch reused
// across calls means the steady-state per-fingerprint allocation is the
// returned labeling alone.

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

// Mix folds extra words — a family kind hash, guarantee bits — into the
// fingerprint, so structurally identical graphs presented under
// different predicate families key separately. Callers pass literal
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
	color  []uint32      // current color (dense rank) per vertex
	sig    []uint64      // signature hash per vertex, input to re-ranking
	sorted []uint64      // sort/dedupe buffer for rank assignment
	order  []int32       // vertices in (color, id) order
	count  []int         // counting-sort buckets, one per color or canonical id plus one
	perm   []int32       // vertex -> canonical id
	heap   []frontierEnt // frontier min-heap of touched, unassigned vertices
	pos    []int32       // heap slot per vertex, -1 until first touched
	ekeys  []uint64      // canonical edge keys
	etmp   []uint64      // counting-sort buffer for the edge keys
}

// NewCanonScratch returns an empty scratch; buffers are sized on first
// use.
func NewCanonScratch() *CanonScratch { return &CanonScratch{} }

// grow sizes every buffer for an n-vertex, m-edge graph.
func (sc *CanonScratch) grow(n, m int) {
	if cap(sc.color) < n {
		sc.color = make([]uint32, n)
		sc.sig = make([]uint64, n)
		sc.sorted = make([]uint64, n)
		sc.order = make([]int32, n)
		sc.count = make([]int, n+1)
		sc.perm = make([]int32, n)
		sc.heap = make([]frontierEnt, n)
		sc.pos = make([]int32, n)
	}
	if cap(sc.ekeys) < m {
		sc.ekeys = make([]uint64, m)
		sc.etmp = make([]uint64, m)
	}
	sc.color = sc.color[:n]
	sc.sig = sc.sig[:n]
	sc.sorted = sc.sorted[:n]
	sc.order = sc.order[:n]
	sc.count = sc.count[:n+1]
	sc.perm = sc.perm[:n]
	sc.heap = sc.heap[:n]
	sc.pos = sc.pos[:n]
	sc.ekeys = sc.ekeys[:m]
	sc.etmp = sc.etmp[:m]
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
	fp := edgeListFingerprint(g, sc, n, m)
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
// stays isomorphism-invariant.
//
//joinpebble:hotpath
func rankColors(sc *CanonScratch, n int) int {
	copy(sc.sorted[:n], sc.sig[:n])
	slices.Sort(sc.sorted[:n])
	k := 0
	for i := 0; i < n; i++ {
		if i == 0 || sc.sorted[i] != sc.sorted[k-1] {
			sc.sorted[k] = sc.sorted[i]
			k++
		}
	}
	ranks := sc.sorted[:k]
	for v := 0; v < n; v++ {
		lo, hi := 0, k
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ranks[mid] < sc.sig[v] {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		sc.color[v] = uint32(lo)
	}
	return k
}

// frontierEnt is a frontier vertex in the canonical-order heap, keyed
// by its color and the hash of its assigned neighbors' canonical ids.
type frontierEnt struct {
	sig   uint64 // xor of mix64(canonSeedLo, id+1) over assigned neighbors
	color uint32
	v     int32
}

// less orders frontier vertices by (color, assigned-neighborhood hash,
// id) — every component isomorphism-invariant except the final id,
// which only breaks ties between vertices the first two could not
// separate.
//
//joinpebble:hotpath
func (e frontierEnt) less(o frontierEnt) bool {
	if e.color != o.color {
		return e.color < o.color
	}
	if e.sig != o.sig {
		return e.sig < o.sig
	}
	return e.v < o.v
}

// canonicalOrder assigns canonical ids in sc.perm, one vertex at a
// time: the least frontier vertex when the frontier is not empty, else
// the least untouched vertex in (color, id) order, which is the first
// unassigned entry of sc.order. A vertex joins the frontier when its
// first neighbor is assigned, so an untouched vertex never outranks a
// frontier one and the order stays contiguous within a component.
// Assigning a vertex folds its fresh canonical id into every unassigned
// neighbor's hash (xor of per-id mixes, so the value is independent of
// assignment order within the set) and re-keys that neighbor's heap
// entry in place. Ties that reach the final id component are between
// vertices with identical color and identical assigned neighborhoods —
// automorphic in the generated families, so the id choice cannot change
// the canonical edge list.
//
//joinpebble:hotpath
func canonicalOrder(c *csr, sc *CanonScratch, n int) {
	for v := 0; v < n; v++ {
		sc.perm[v] = -1
		sc.pos[v] = -1
	}
	h := sc.heap
	hn, untouched := 0, 0
	for id := 0; id < n; id++ {
		var v int32
		if hn > 0 {
			v = h[0].v
			hn--
			frontierPop(sc, hn)
		} else {
			for sc.perm[sc.order[untouched]] >= 0 {
				untouched++
			}
			v = sc.order[untouched]
		}
		sc.perm[v] = int32(id)
		mix := mix64(canonSeedLo, uint64(id)+1)
		for _, w := range c.vert[c.start[v]:c.start[v+1]] {
			if sc.perm[w] >= 0 {
				continue
			}
			i := int(sc.pos[w])
			if i < 0 {
				frontierUp(sc, frontierEnt{sig: mix, color: sc.color[w], v: int32(w)}, hn)
				hn++
				continue
			}
			e := h[i]
			e.sig ^= mix
			if i > 0 && e.less(h[(i-1)/2]) {
				frontierUp(sc, e, i)
			} else {
				frontierDown(sc, e, i, hn)
			}
		}
	}
}

// frontierUp places e at heap slot i or, past every ancestor it beats,
// nearer the root, shifting those ancestors down and keeping sc.pos in
// step.
//
//joinpebble:hotpath
func frontierUp(sc *CanonScratch, e frontierEnt, i int) {
	h := sc.heap
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		sc.pos[h[i].v] = int32(i)
		i = p
	}
	h[i] = e
	sc.pos[e.v] = int32(i)
}

// frontierPop refills the root slot, whose entry the caller has taken,
// once the heap has shrunk to hn entries: the hole walks down the
// smaller children to a leaf, one comparison per level, and the entry
// left in slot hn, now past the end, is sifted up from there. Sifting
// that entry down from the root would cost two comparisons per level,
// and it usually belongs near the bottom anyway.
//
//joinpebble:hotpath
func frontierPop(sc *CanonScratch, hn int) {
	h := sc.heap
	i := 0
	for {
		s := 2*i + 1
		if s >= hn {
			break
		}
		if r := s + 1; r < hn && h[r].less(h[s]) {
			s = r
		}
		h[i] = h[s]
		sc.pos[h[i].v] = int32(i)
		i = s
	}
	frontierUp(sc, h[hn], i)
}

// frontierDown places e at slot i of the first hn heap slots or, past
// every child that beats it, nearer the leaves, shifting those children
// up and keeping sc.pos in step.
//
//joinpebble:hotpath
func frontierDown(sc *CanonScratch, e frontierEnt, i, hn int) {
	h := sc.heap
	for {
		s := 2*i + 1
		if s >= hn {
			break
		}
		if r := s + 1; r < hn && h[r].less(h[s]) {
			s = r
		}
		if !h[s].less(e) {
			break
		}
		h[i] = h[s]
		sc.pos[h[i].v] = int32(i)
		i = s
	}
	h[i] = e
	sc.pos[e.v] = int32(i)
}

// edgeListFingerprint hashes the sorted canonical edge list plus the
// graph's order and size into 128 bits. An edge's key is its smaller
// canonical id in the high word and its larger in the low word, so two
// stable counting passes, by the low word and then the high, put the
// keys in ascending order.
//
//joinpebble:hotpath
func edgeListFingerprint(g *Graph, sc *CanonScratch, n, m int) Fingerprint {
	for i := 0; i < m; i++ {
		e := g.edges[i]
		a, b := sc.perm[e.U], sc.perm[e.V]
		if a > b {
			a, b = b, a
		}
		sc.ekeys[i] = uint64(a)<<32 | uint64(b)
	}
	countingSortKeys(sc.etmp, sc.ekeys, 0, sc.count[:n+1])
	countingSortKeys(sc.ekeys, sc.etmp, 32, sc.count[:n+1])
	hi := mix64(canonSeedHi, uint64(n))
	lo := mix64(canonSeedLo, uint64(n))
	hi = mix64(hi, uint64(m))
	lo = mix64(lo, uint64(m))
	for i := 0; i < m; i++ {
		hi = mix64(hi, sc.ekeys[i])
		lo = mix64(lo, sc.ekeys[i]^0x5BF0_3635_DEAD_BEEF)
	}
	return Fingerprint{Hi: hi, Lo: lo}
}

// countingSortKeys stably scatters src into dst in ascending order of the
// canonical id held in the 32 bits of each key from bit shift up; cnt
// holds one bucket per canonical id plus one.
//
//joinpebble:hotpath
func countingSortKeys(dst, src []uint64, shift uint, cnt []int) {
	clear(cnt)
	for _, k := range src {
		cnt[uint32(k>>shift)+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	for _, k := range src {
		id := uint32(k >> shift)
		dst[cnt[id]] = k
		cnt[id]++
	}
}
