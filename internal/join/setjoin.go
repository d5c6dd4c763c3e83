package join

import (
	"joinpebble/internal/graph"
	"joinpebble/internal/sets"
)

var (
	mSignatureNL     = newAlgMetrics("join/signature_nested_loop/tuples_compared", "join/signature_nested_loop/pairs_emitted")
	mInvertedIndex   = newAlgMetrics("join/inverted_index/tuples_compared", "join/inverted_index/pairs_emitted")
	mPartitionedSets = newAlgMetrics("join/partitioned_set/tuples_compared", "join/partitioned_set/pairs_emitted")
)

// SignatureNestedLoop is the signature-filtered nested-loop containment
// join of Helmer & Moerkotte ([5] in the paper): precompute 64-bit
// superimposed signatures, compare sets only when the signature test
// passes. Same emission order as NestedLoop, fewer set comparisons.
func SignatureNestedLoop(ls, rs []sets.Set) []Pair {
	lsig := make([]sets.Signature, len(ls))
	for i, s := range ls {
		lsig[i] = sets.SignatureOf(s)
	}
	rsig := make([]sets.Signature, len(rs))
	for j, s := range rs {
		rsig[j] = sets.SignatureOf(s)
	}
	var out []Pair
	var compared int64 // full subset tests the signature filter let through
	for i, l := range ls {
		for j, r := range rs {
			if lsig[i].MaySubset(rsig[j]) {
				compared++
				if l.SubsetOf(r) {
					out = append(out, Pair{L: i, R: j})
				}
			}
		}
	}
	mSignatureNL.flush(compared, int64(len(out)))
	return out
}

// InvertedIndexJoin builds an inverted index on the right (superset) side
// and probes it with each left set, intersecting posting lists. Empty
// left sets match every right tuple. Emission is left-major with right
// matches in ascending index order.
func InvertedIndexJoin(ls, rs []sets.Set) []Pair {
	ids, off := supersets(ls, rs)
	var out []Pair
	for i := range ls {
		for _, j := range ids[off[i]:off[i+1]] {
			out = append(out, Pair{L: i, R: j})
		}
	}
	mInvertedIndex.flush(int64(len(ls)), int64(len(out))) // one index probe per left set
	return out
}

// ContainmentGraph builds the set-containment join graph (§3.2) with
// InvertedIndexJoin's index probes: the graph NestedLoop's pairs under
// Contains make, edge for edge and in the same order, in time linear in
// the sets' sizes, the posting-list intersections and the output.
func ContainmentGraph(ls, rs []sets.Set) *graph.Bipartite {
	ids, off := supersets(ls, rs)
	edges := make([]graph.Edge, 0, len(ids))
	for i := range ls {
		for _, j := range ids[off[i]:off[i+1]] {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	return graph.NewBipartite(len(ls), len(rs), edges)
}

// supersets probes an inverted index on rs with every left set: the ids
// of the right sets that contain ls[i] are ids[off[i]:off[i+1]],
// ascending.
func supersets(ls, rs []sets.Set) (ids, off []int) {
	idx := sets.BuildInvertedIndex(rs)
	off = make([]int, len(ls)+1)
	for i, l := range ls {
		ids = idx.Supersets(ids, l)
		off[i+1] = len(ids)
	}
	return ids, off
}

// PartitionedSetJoin is a main-memory analogue of the partitioned set
// joins of Ramasamy et al. ([14] in the paper): right sets are hashed
// into partitions by every element they contain, left sets probe only
// the partition of their smallest element — any superset of l contains
// that element, so it is replicated into the probed partition. Left sets
// that are empty match everything. Each candidate is verified with the
// real subset test; probing a single partition per left set keeps the
// output duplicate-free even though right sets are replicated.
func PartitionedSetJoin(ls, rs []sets.Set, partitions int) []Pair {
	if partitions < 1 {
		partitions = 1
	}
	part := make([][]int, partitions)
	for j, r := range rs {
		seen := make(map[int]bool)
		for _, e := range r.Elems() {
			p := int(e) % partitions
			if !seen[p] {
				part[p] = append(part[p], j)
				seen[p] = true
			}
		}
	}
	var out []Pair
	var compared int64
	for i, l := range ls {
		if l.Empty() {
			for j := range rs {
				out = append(out, Pair{L: i, R: j})
			}
			continue
		}
		p := int(l.Elems()[0]) % partitions
		compared += int64(len(part[p]))
		for _, j := range part[p] {
			if l.SubsetOf(rs[j]) {
				out = append(out, Pair{L: i, R: j})
			}
		}
	}
	mPartitionedSets.flush(compared, int64(len(out)))
	return out
}
