package join

import (
	"cmp"
	"sort"

	"joinpebble/internal/graph"
)

var (
	mHashJoin        = newAlgMetrics("join/hash/tuples_compared", "join/hash/pairs_emitted")
	mSortMerge       = newAlgMetrics("join/sort_merge/tuples_compared", "join/sort_merge/pairs_emitted")
	mSortMergeZigzag = newAlgMetrics("join/sort_merge_zigzag/tuples_compared", "join/sort_merge_zigzag/pairs_emitted")
)

// HashJoin is the classic build/probe hash equijoin over a comparable
// key: build a hash table on the right input, probe with each left tuple.
// Emission order is left-major (all matches of l_0, then l_1, ...), with
// right matches in right-input order.
func HashJoin[K comparable](ls, rs []K) []Pair {
	table := make(map[K][]int, len(rs))
	for j, r := range rs {
		table[r] = append(table[r], j)
	}
	var out []Pair
	for i, l := range ls {
		for _, j := range table[l] {
			out = append(out, Pair{L: i, R: j})
		}
	}
	mHashJoin.flush(int64(len(ls)), int64(len(out))) // one probe per left tuple
	return out
}

// SortMerge is the classic sort-merge equijoin: sort both inputs, advance
// two cursors, and for each group of equal values emit the cross product
// by rescanning the right group for every left tuple (the textbook
// "rewind" merge). Emission within a group is left-major with the right
// side always scanned in the same direction, so consecutive left tuples
// cost a pebbling jump — compare SortMergeZigzag. Works over any ordered
// key domain (§3.1's "character strings or some flavor of numeric type").
func SortMerge[K cmp.Ordered](ls, rs []K) []Pair {
	var out []Pair
	compared := mergeGroups(ls, rs, func(lg, rg []int) {
		for _, l := range lg {
			for _, r := range rg { // rewind: always forward
				out = append(out, Pair{L: l, R: r})
			}
		}
	})
	mSortMerge.flush(compared, int64(len(out)))
	return out
}

// SortMergeZigzag is SortMerge with the right group scanned boustrophedon
// (forward for the first left tuple, backward for the next, ...), which
// is exactly Lemma 3.2's perfect pebbling of the group's complete
// bipartite join graph. With this emission order the merge phase achieves
// π = m — the construction Theorem 4.1 observes "is similar to the merge
// phase of sort-merge join".
func SortMergeZigzag[K cmp.Ordered](ls, rs []K) []Pair {
	var out []Pair
	compared := mergeGroups(ls, rs, func(lg, rg []int) {
		for a, l := range lg {
			if a%2 == 0 {
				for _, r := range rg {
					out = append(out, Pair{L: l, R: r})
				}
			} else {
				for b := len(rg) - 1; b >= 0; b-- {
					out = append(out, Pair{L: l, R: rg[b]})
				}
			}
		}
	})
	mSortMergeZigzag.flush(compared, int64(len(out)))
	return out
}

// mergeGroups is the merge phase both sort-merge joins share: it sorts
// the inputs' indices by value (stable, so ties keep input order), walks
// the two runs with one cursor each, and hands group the left and right
// indices of every value both sides hold, in ascending value order. It
// returns the number of cursor comparisons.
func mergeGroups[K cmp.Ordered](ls, rs []K, group func(lg, rg []int)) (compared int64) {
	li, ri := sortedIndex(ls), sortedIndex(rs)
	i, j := 0, 0
	for i < len(li) && j < len(ri) {
		lv, rv := ls[li[i]], rs[ri[j]]
		compared++
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			iEnd := i
			for iEnd < len(li) && ls[li[iEnd]] == lv {
				iEnd++
			}
			jEnd := j
			for jEnd < len(ri) && rs[ri[jEnd]] == rv {
				jEnd++
			}
			group(li[i:iEnd], ri[j:jEnd])
			i, j = iEnd, jEnd
		}
	}
	return compared
}

// EquiGraph builds the equijoin join graph from its value groups: one
// map gives each right value a group id, left tuples take the id of
// their value or none, and graph.NewBicliqueUnion writes the edges, the
// spans and the components straight from the groups, with the output
// size Σ_v |L_v|·|R_v| known before it allocates. O(|L| + |R| + m), with a
// constant number of allocations however many values there are. The
// result is identical to GraphFromPairs over NestedLoop's pairs under
// integer equality, edge for edge.
func EquiGraph(ls, rs []int64) *graph.Bipartite {
	ids := make(map[int64]int32, len(rs))
	buf := make([]int32, len(ls)+len(rs))
	left, right := buf[:len(ls):len(ls)], buf[len(ls):]
	for j, v := range rs {
		id, ok := ids[v]
		if !ok {
			id = int32(len(ids))
			ids[v] = id
		}
		right[j] = id
	}
	for i, v := range ls {
		left[i] = -1
		if id, ok := ids[v]; ok {
			left[i] = id
		}
	}
	return graph.NewBicliqueUnion(left, right, len(ids))
}

// sortedIndex returns the indices of vs in ascending value order (stable,
// so ties keep input order), leaving out NaN keys: under == a NaN joins
// nothing, itself included, and it would break the sort's strict weak
// order and stall the merge, which reads a pair of keys neither less nor
// greater as equal.
func sortedIndex[K cmp.Ordered](vs []K) []int {
	idx := make([]int, 0, len(vs))
	for i, v := range vs {
		if v == v { // false only for NaN
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return vs[idx[a]] < vs[idx[b]] })
	return idx
}
