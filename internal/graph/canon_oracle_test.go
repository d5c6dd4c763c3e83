package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// CanonicalizeOracle is Canonicalize as it stood before the color-sweep
// rewrite, kept as its differential oracle: refinement sorts every
// vertex's neighbor colors, the canonical order pops a lazy-deletion
// heap that holds one entry per vertex and per touch, and the
// fingerprint sorts the canonical edge keys. It labels components by its
// own BFS rather than the graph's decomposition, shares the color
// re-ranking with Canonicalize, and allocates its buffers on every call. Exported for the graph_test differential suite.
func CanonicalizeOracle(g *Graph) ([]int32, Fingerprint) {
	n, m := g.N(), g.M()
	if n == 0 {
		return nil, Fingerprint{Hi: mix64(canonSeedHi, 0), Lo: mix64(canonSeedLo, 0)}
	}
	c := &g.csr
	maxDeg := 0
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, c.degree(v))
	}
	sc := NewCanonScratch()
	sc.grow(n, m)
	comp, cinfo := bfsComponentInfo(c, n)
	for v := 0; v < n; v++ {
		h := mix64(canonSeedHi, uint64(c.degree(v)))
		sc.sig[v] = mix64(h, cinfo[comp[v]])
	}
	distinct := rankColors(sc, n)
	nbr := make([]uint64, maxDeg)
	for {
		sortingRefinePass(c, sc, nbr, n)
		next := rankColors(sc, n)
		if next == distinct {
			break
		}
		distinct = next
	}
	perm := heapCanonicalOrder(c, sc.color, n, m)
	return perm, sortingEdgeListFingerprint(g, perm)
}

// bfsComponentInfo labels each vertex with its component by BFS and
// hashes each component's (vertex count, edge count), the way
// Canonicalize seeded its initial colors before it read the graph's
// component decomposition.
func bfsComponentInfo(c *csr, n int) (comp []int32, cinfo []uint64) {
	comp = make([]int32, n)
	for v := range comp {
		comp[v] = -1
	}
	queue := make([]int, 0, n)
	for root := 0; root < n; root++ {
		if comp[root] >= 0 {
			continue
		}
		ci := int32(len(cinfo))
		comp[root] = ci
		queue = append(queue[:0], root)
		slots := 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			slots += c.degree(u)
			for _, w := range c.vert[c.start[u]:c.start[u+1]] {
				if comp[w] < 0 {
					comp[w] = ci
					queue = append(queue, w)
				}
			}
		}
		// slots double-counts edges (one slot per endpoint).
		cinfo = append(cinfo, mix64(mix64(canonSeedLo, uint64(len(queue))), uint64(slots/2)))
	}
	return comp, cinfo
}

// sortingRefinePass computes each vertex's next signature from its
// current color and the sorted multiset of its neighbors' colors,
// gathered into nbr and sorted vertex by vertex.
func sortingRefinePass(c *csr, sc *CanonScratch, nbr []uint64, n int) {
	for v := 0; v < n; v++ {
		lo, hi := c.start[v], c.start[v+1]
		k := 0
		for i := lo; i < hi; i++ {
			nbr[k] = uint64(sc.color[c.vert[i]])
			k++
		}
		slices.Sort(nbr[:k])
		h := mix64(canonSeedHi, uint64(sc.color[v]))
		for i := 0; i < k; i++ {
			h = mix64(h, nbr[i])
		}
		sc.sig[v] = h
	}
}

// canonEnt is one candidate in the oracle's greedy-order heap. Entries
// are immutable; a vertex whose key changed is re-pushed with a bumped
// version and stale entries are dropped at pop time.
type canonEnt struct {
	color uint32
	sig   uint64
	id    int32
	ver   uint32
}

// less orders candidates frontier first (ver > 0), then by (color,
// assigned-neighborhood hash, id).
func (e canonEnt) less(o canonEnt) bool {
	et, ot := e.ver > 0, o.ver > 0
	if et != ot {
		return et
	}
	if e.color != o.color {
		return e.color < o.color
	}
	if e.sig != o.sig {
		return e.sig < o.sig
	}
	return e.id < o.id
}

// heapCanonicalOrder assigns canonical ids one vertex at a time, always
// the least candidate next. Every vertex starts with one untouched entry,
// and assigning a vertex folds its id into each unassigned neighbor's
// hash and re-pushes that neighbor with a bumped version, so the heap
// peaks at n + m entries.
func heapCanonicalOrder(c *csr, color []uint32, n, m int) []int32 {
	perm := make([]int32, n)
	sigAdj := make([]uint64, n)
	ver := make([]uint32, n)
	heap := make([]canonEnt, 0, n+m)
	for v := 0; v < n; v++ {
		perm[v] = -1
		heap = heapPush(heap, canonEnt{color: color[v], id: int32(v)})
	}
	next := int32(0)
	for len(heap) > 0 {
		var e canonEnt
		e, heap = heapPop(heap)
		v := int(e.id)
		if perm[v] >= 0 || ver[v] != e.ver {
			continue
		}
		perm[v] = next
		id := uint64(next)
		next++
		for i := c.start[v]; i < c.start[v+1]; i++ {
			w := c.vert[i]
			if perm[w] >= 0 {
				continue
			}
			sigAdj[w] ^= mix64(canonSeedLo, id+1)
			ver[w]++
			heap = heapPush(heap, canonEnt{color: color[w], sig: sigAdj[w], id: int32(w), ver: ver[w]})
		}
	}
	return perm
}

func heapPush(h []canonEnt, e canonEnt) []canonEnt {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapPop(h []canonEnt) (canonEnt, []canonEnt) {
	top := h[0]
	hn := len(h) - 1
	h[0] = h[hn]
	h = h[:hn]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < hn && h[l].less(h[s]) {
			s = l
		}
		if r < hn && h[r].less(h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return top, h
}

// sortingEdgeListFingerprint hashes the sorted canonical edge list plus
// the graph's order and size into 128 bits.
func sortingEdgeListFingerprint(g *Graph, perm []int32) Fingerprint {
	n, m := g.N(), g.M()
	keys := make([]uint64, m)
	for i, e := range g.edges {
		a, b := perm[e.U], perm[e.V]
		if a > b {
			a, b = b, a
		}
		keys[i] = uint64(a)<<32 | uint64(b)
	}
	slices.Sort(keys)
	hi := mix64(canonSeedHi, uint64(n))
	lo := mix64(canonSeedLo, uint64(n))
	hi = mix64(hi, uint64(m))
	lo = mix64(lo, uint64(m))
	for _, k := range keys {
		hi = mix64(hi, k)
		lo = mix64(lo, k^0x5BF0_3635_DEAD_BEEF)
	}
	return Fingerprint{Hi: hi, Lo: lo}
}

// TestRankColorsMatchesSortedRanks: rankColors gives every vertex the
// rank of its signature among the distinct signatures in ascending
// order, as sorting all n signatures and binary-searching each one did
// before the table replaced them. CanonicalizeOracle shares rankColors,
// so this is the check that keeps it honest. The pools repeat values,
// hold 0 and the largest uint64, and share their low bits, so probe
// chains run long and wrap around the table.
func TestRankColorsMatchesSortedRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := NewCanonScratch()
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(3000)
		pool := make([]uint64, 1+rng.Intn(n))
		for i := range pool {
			switch rng.Intn(4) {
			case 0:
				pool[i] = rng.Uint64() << 40 // equal low bits
			case 1:
				pool[i] = []uint64{0, math.MaxUint64 / 2, math.MaxUint64}[rng.Intn(3)]
			default:
				pool[i] = rng.Uint64()
			}
		}
		sc.grow(n, 0)
		for v := 0; v < n; v++ {
			sc.sig[v] = pool[rng.Intn(len(pool))]
		}
		want := slices.Clone(sc.sig[:n])
		slices.Sort(want)
		want = slices.Compact(want)
		if k := rankColors(sc, n); k != len(want) {
			t.Fatalf("trial %d: %d distinct signatures, want %d", trial, k, len(want))
		}
		for v := 0; v < n; v++ {
			if r, _ := slices.BinarySearch(want, sc.sig[v]); sc.color[v] != uint32(r) {
				t.Fatalf("trial %d: vertex %d ranks %d, want %d", trial, v, sc.color[v], r)
			}
		}
	}
}
