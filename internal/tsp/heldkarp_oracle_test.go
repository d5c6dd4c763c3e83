package tsp

import "math"

// heldKarp is the general-weight Held–Karp dynamic program that Exact
// replaced, kept as its differential oracle: dp[S][v] is the cheapest
// path that visits exactly the cities of S and ends at v, O(2^n · n²)
// time and 3 bytes per (subset, end) pair. A state's parent is the
// lowest predecessor that reaches its optimum, and the tour ends at the
// lowest optimal city; Exact must return the very same tour.
func heldKarp(in *Instance) (Tour, int) {
	n := in.N()
	if n == 0 {
		return Tour{}, 0
	}
	if n == 1 {
		return Tour{0}, 0
	}
	const inf = math.MaxUint16
	size := 1 << n
	dp := make([]uint16, size*n)
	parent := make([]int8, size*n)
	for i := range dp {
		dp[i] = inf
	}
	for v := 0; v < n; v++ {
		dp[(1<<v)*n+v] = 0
		parent[(1<<v)*n+v] = -1
	}
	w := make([]uint16, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				w[u*n+v] = uint16(in.Weight(u, v))
			}
		}
	}
	for s := 1; s < size; s++ {
		base := s * n
		for v := 0; v < n; v++ {
			cur := dp[base+v]
			if cur == inf || s&(1<<v) == 0 {
				continue
			}
			for u := 0; u < n; u++ {
				if s&(1<<u) != 0 {
					continue
				}
				ns := s | 1<<u
				if cand := cur + w[v*n+u]; cand < dp[ns*n+u] {
					dp[ns*n+u] = cand
					parent[ns*n+u] = int8(v)
				}
			}
		}
	}
	full := size - 1
	best, bestEnd := uint16(inf), -1
	for v := 0; v < n; v++ {
		if dp[full*n+v] < best {
			best, bestEnd = dp[full*n+v], v
		}
	}
	tour := make(Tour, 0, n)
	for s, v := full, bestEnd; v != -1; {
		tour = append(tour, v)
		p := int(parent[s*n+v])
		s &^= 1 << v
		v = p
	}
	reverse(tour)
	return tour, int(best)
}
