// Package sets implements the set-valued attribute domain of §3.2:
// set values, the subset predicate behind set-containment joins, compact
// signatures for prefiltering, an inverted index, and the universality
// construction of Lemma 3.3 showing every bipartite graph is the join
// graph of some set-containment join.
package sets

import (
	"fmt"
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
	s := make([]uint32, len(elems))
	copy(s, elems)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
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

// Parse reads the String format (whitespace tolerated, empty set "{}").
func Parse(text string) (Set, error) {
	text = strings.TrimSpace(text)
	if len(text) < 2 || text[0] != '{' || text[len(text)-1] != '}' {
		return Set{}, fmt.Errorf("sets: %q is not a braced set literal", text)
	}
	inner := strings.TrimSpace(text[1 : len(text)-1])
	if inner == "" {
		return Set{}, nil
	}
	parts := strings.Split(inner, ",")
	elems := make([]uint32, 0, len(parts))
	for _, p := range parts {
		var e uint32
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &e); err != nil {
			return Set{}, fmt.Errorf("sets: bad element %q: %w", p, err)
		}
		elems = append(elems, e)
	}
	return New(elems...), nil
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
type InvertedIndex struct {
	postings map[uint32][]int
	size     int
}

// BuildInvertedIndex indexes the given sets by element; the i-th set gets
// id i.
func BuildInvertedIndex(setsToIndex []Set) *InvertedIndex {
	idx := &InvertedIndex{postings: make(map[uint32][]int), size: len(setsToIndex)}
	for id, s := range setsToIndex {
		for _, e := range s.Elems() {
			idx.postings[e] = append(idx.postings[e], id)
		}
	}
	return idx
}

// Size returns the number of indexed sets.
func (idx *InvertedIndex) Size() int { return idx.size }

// Supersets returns the ids of indexed sets that are supersets of probe,
// in ascending id order, by intersecting posting lists. An empty probe
// matches every indexed set.
func (idx *InvertedIndex) Supersets(probe Set) []int {
	if probe.Empty() {
		all := make([]int, idx.size)
		for i := range all {
			all[i] = i
		}
		return all
	}
	elems := probe.Elems()
	// Start from the shortest posting list to keep intersections small.
	start := 0
	for i, e := range elems {
		if len(idx.postings[e]) < len(idx.postings[elems[start]]) {
			start = i
		}
	}
	cur := idx.postings[elems[start]]
	result := make([]int, len(cur))
	copy(result, cur)
	for i, e := range elems {
		if i == start || len(result) == 0 {
			continue
		}
		result = intersectSorted(result, idx.postings[e])
	}
	return result
}

func intersectSorted(a, b []int) []int {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
