// Package sets implements the set-valued attribute domain of §3.2:
// set values, the subset predicate behind set-containment joins, compact
// signatures for prefiltering, an inverted index, and the universality
// construction of Lemma 3.3 showing every bipartite graph is the join
// graph of some set-containment join.
package sets

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Set is a set of uint32 elements stored as a sorted, deduplicated slice.
// The zero value is the empty set.
type Set struct {
	elems []uint32
}

// New builds a set from the given elements (duplicates collapse).
func New(elems ...uint32) Set {
	if len(elems) == 0 {
		return Set{}
	}
	s := slices.Clone(elems)
	slices.Sort(s)
	out := s[:1]
	for _, e := range s[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return Set{elems: out}
}

// Len returns the cardinality.
func (s Set) Len() int { return len(s.elems) }

// Empty reports whether s has no elements.
func (s Set) Empty() bool { return len(s.elems) == 0 }

// Elems returns the elements in ascending order. The slice is owned by
// the set and must not be mutated.
func (s Set) Elems() []uint32 { return s.elems }

// Contains reports whether e is an element of s.
func (s Set) Contains(e uint32) bool {
	i := sort.Search(len(s.elems), func(i int) bool { return s.elems[i] >= e })
	return i < len(s.elems) && s.elems[i] == e
}

// SubsetOf reports whether every element of s is in t — the join
// predicate r.A ⊆ s.B of §3.2. Linear merge over the two sorted slices.
func (s Set) SubsetOf(t Set) bool {
	if len(s.elems) > len(t.elems) {
		return false
	}
	j := 0
	for _, e := range s.elems {
		for j < len(t.elems) && t.elems[j] < e {
			j++
		}
		if j == len(t.elems) || t.elems[j] != e {
			return false
		}
		j++
	}
	return true
}

// Equal reports set equality.
func (s Set) Equal(t Set) bool {
	if len(s.elems) != len(t.elems) {
		return false
	}
	for i := range s.elems {
		if s.elems[i] != t.elems[i] {
			return false
		}
	}
	return true
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	out := make([]uint32, 0, len(s.elems)+len(t.elems))
	i, j := 0, 0
	for i < len(s.elems) && j < len(t.elems) {
		switch {
		case s.elems[i] < t.elems[j]:
			out = append(out, s.elems[i])
			i++
		case s.elems[i] > t.elems[j]:
			out = append(out, t.elems[j])
			j++
		default:
			out = append(out, s.elems[i])
			i++
			j++
		}
	}
	out = append(out, s.elems[i:]...)
	out = append(out, t.elems[j:]...)
	return Set{elems: out}
}

// String renders "{1,2,3}".
func (s Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, e := range s.elems {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", e)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Signature is a 64-bit superimposed signature: bit hash(e)%64 is set for
// every element. If sig(r) has a bit outside sig(s), r cannot be a subset
// of s — the standard prefilter in signature-based set joins
// (Helmer & Moerkotte, VLDB '97, cited as [5] in the paper).
type Signature uint64

// SignatureOf computes the signature of s.
func SignatureOf(s Set) Signature {
	var sig Signature
	for _, e := range s.elems {
		sig |= 1 << (hash32(e) % 64)
	}
	return sig
}

// MaySubset reports whether the signatures permit r ⊆ s. False means
// definitely not a subset; true means the sets must be compared.
func (r Signature) MaySubset(s Signature) bool { return r&^s == 0 }

// hash32 is a Fibonacci-style multiplicative hash.
func hash32(x uint32) uint32 { return x * 2654435761 }

// InvertedIndex maps elements to the ids of the indexed sets containing
// them. Used by the containment join: the sets containing all elements of
// a probe set r are the intersection of r's posting lists.
//
// The posting lists are compressed sparse rows. The distinct elements of
// the indexed sets, ascending, give each element a dense rank, and the
// ids of the sets holding the element of rank k are
// ids[start[k]:start[k+1]], ascending. Ranks, not raw element values,
// index the rows, so the index stays O(Σ|s|) whatever values the sets
// hold.
type InvertedIndex struct {
	elems []uint32
	start []int
	ids   []int
	size  int
}

// BuildInvertedIndex indexes the given sets by element; the i-th set gets
// id i.
func BuildInvertedIndex(setsToIndex []Set) *InvertedIndex {
	// One (element, id) pair per occurrence, the element in the high
	// half: stably sorted by element, the pairs are the rows back to back.
	total := 0
	for _, s := range setsToIndex {
		total += len(s.elems)
	}
	pairs := make([]uint64, 0, total)
	for id, s := range setsToIndex {
		for _, e := range s.elems {
			pairs = append(pairs, uint64(e)<<32|uint64(id))
		}
	}
	pairs = sortByElement(pairs)
	rows := 0
	for k, p := range pairs {
		if k == 0 || p>>32 != pairs[k-1]>>32 {
			rows++
		}
	}
	idx := &InvertedIndex{
		elems: make([]uint32, 0, rows),
		start: make([]int, 0, rows+1),
		ids:   make([]int, total),
		size:  len(setsToIndex),
	}
	for k, p := range pairs {
		if k == 0 || p>>32 != pairs[k-1]>>32 {
			idx.elems = append(idx.elems, uint32(p>>32))
			idx.start = append(idx.start, k)
		}
		idx.ids[k] = int(uint32(p))
	}
	idx.start = append(idx.start, total)
	return idx
}

// sortByElement sorts pairs stably by their high 32 bits: an LSD radix
// sort with one counting pass per byte of the element, skipping a byte
// every pair shares.
func sortByElement(pairs []uint64) []uint64 {
	if len(pairs) == 0 {
		return pairs
	}
	var counts [4][256]int
	for _, p := range pairs {
		for b := range counts {
			counts[b][byte(p>>(32+8*b))]++
		}
	}
	tmp := make([]uint64, len(pairs))
	for b := range counts {
		shift, c := 32+8*b, &counts[b]
		if c[byte(pairs[0]>>shift)] == len(pairs) {
			continue
		}
		pos := 0
		for d, n := range c {
			c[d], pos = pos, pos+n
		}
		for _, p := range pairs {
			d := byte(p >> shift)
			tmp[c[d]] = p
			c[d]++
		}
		pairs, tmp = tmp, pairs
	}
	return pairs
}

// Supersets appends to dst the ids of the indexed sets that are supersets
// of probe, in ascending id order, and returns the extended slice. An
// empty probe matches every indexed set; a probe element no indexed set
// holds matches none.
func (idx *InvertedIndex) Supersets(dst []int, probe Set) []int {
	if probe.Empty() {
		for id := 0; id < idx.size; id++ {
			dst = append(dst, id)
		}
		return dst
	}
	var stack [8]cursor
	rows := stack[:0]
	for _, e := range probe.elems {
		row, ok := slices.BinarySearch(idx.elems, e)
		if !ok {
			return dst
		}
		rows = append(rows, cursor{at: idx.start[row], end: idx.start[row+1]})
	}
	return leapfrog(dst, idx.ids, rows)
}

// cursor is a posting list's unvisited suffix, ids[at:end].
type cursor struct{ at, end int }

// leapfrog appends to dst the ids present in every one of the rows, each
// a non-empty ascending run of ids, ascending: the k-way intersection at
// the heart of Veldhuizen's Leapfrog Triejoin. The cursors stay in
// cyclic order of their heads; the cursor at p holds the least head and
// the one before it the greatest, hi. When the least head equals hi every
// row agrees on it; otherwise the cursor at p gallops to hi and its new
// head becomes the greatest.
func leapfrog(dst, ids []int, rows []cursor) []int {
	if len(rows) == 1 {
		return append(dst, ids[rows[0].at:rows[0].end]...)
	}
	slices.SortFunc(rows, func(a, b cursor) int { return cmp.Compare(ids[a.at], ids[b.at]) })
	hi := ids[rows[len(rows)-1].at]
	for p := 0; ; {
		c := &rows[p]
		if ids[c.at] == hi {
			dst = append(dst, hi)
			c.at++
		} else {
			c.at += seek(ids[c.at:c.end], hi)
		}
		if c.at == c.end {
			return dst
		}
		hi = ids[c.at]
		if p++; p == len(rows) {
			p = 0
		}
	}
}

// seek returns the least i with l[i] >= x, or len(l), given l[0] < x:
// a galloping search, doubling its stride from the front, then a binary
// search inside the last stride. It costs O(log d) for a seek that skips
// d ids.
func seek(l []int, x int) int {
	lo, step := 0, 1 // l[lo] < x
	for lo+step < len(l) && l[lo+step] < x {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(l)) // hi == len(l) or l[hi] >= x
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
