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
	li, ri := sortedIndex(ls), sortedIndex(rs)
	var out []Pair
	var compared int64
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
			// Group boundaries.
			iEnd := i
			for iEnd < len(li) && ls[li[iEnd]] == lv {
				iEnd++
			}
			jEnd := j
			for jEnd < len(ri) && rs[ri[jEnd]] == rv {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ { // rewind: always forward
					out = append(out, Pair{L: li[a], R: ri[b]})
				}
			}
			i, j = iEnd, jEnd
		}
	}
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
	li, ri := sortedIndex(ls), sortedIndex(rs)
	var out []Pair
	var compared int64
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
			for a := i; a < iEnd; a++ {
				if (a-i)%2 == 0 {
					for b := j; b < jEnd; b++ {
						out = append(out, Pair{L: li[a], R: ri[b]})
					}
				} else {
					for b := jEnd - 1; b >= j; b-- {
						out = append(out, Pair{L: li[a], R: ri[b]})
					}
				}
			}
			i, j = iEnd, jEnd
		}
	}
	mSortMergeZigzag.flush(compared, int64(len(out)))
	return out
}

// EquiGraph builds the equijoin join graph by grouping tuples on their
// value — O(|L| + |R| + m) instead of the cross-product scan of Graph.
// The result is identical to Graph over integer equality.
func EquiGraph(ls, rs []int64) *graph.Bipartite {
	groups := make(map[int64][]int, len(rs))
	for j, v := range rs {
		groups[v] = append(groups[v], j)
	}
	m := 0
	for _, v := range ls {
		m += len(groups[v])
	}
	edges := make([]graph.Edge, 0, m)
	for i, v := range ls {
		for _, j := range groups[v] {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	return graph.NewBipartite(len(ls), len(rs), edges)
}

// sortedIndex returns the indices of vs in ascending value order (stable,
// so ties keep input order).
func sortedIndex[K cmp.Ordered](vs []K) []int {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vs[idx[a]] < vs[idx[b]] })
	return idx
}
