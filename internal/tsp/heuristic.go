package tsp

// NearestNeighbor builds a tour greedily: from the current city, step to
// any unvisited good neighbour if one exists, otherwise jump to the
// lowest-numbered unvisited city. Starting cities are tried from every
// vertex and the best result kept, so the heuristic is deterministic.
// On TSP(1,2) it is never worse than 2x optimal (every step costs at most
// 2) and typically far closer.
func NearestNeighbor(in *Instance) (Tour, int) {
	n := in.N()
	if n == 0 {
		return Tour{}, 0
	}
	var bestTour Tour
	bestCost := -1
	used := make([]bool, n)
	for s := 0; s < n; s++ {
		for i := range used {
			used[i] = false
		}
		tour := make(Tour, 1, n)
		tour[0] = s
		used[s] = true
		cost := 0
		for len(tour) < n {
			v := tour[len(tour)-1]
			next := -1
			for _, u := range in.Good.Neighbors(v) {
				if !used[u] {
					next = u
					break
				}
			}
			if next >= 0 {
				cost++
			} else {
				for u := 0; u < n; u++ {
					if !used[u] {
						next = u
						break
					}
				}
				cost += 2
			}
			tour = append(tour, next)
			used[next] = true
		}
		if bestCost < 0 || cost < bestCost {
			bestCost = cost
			bestTour = tour
		}
	}
	return bestTour, bestCost
}

// TwoOptImprove applies 2-opt (segment reversal) and Or-opt (single-city
// relocation) moves until no improving move exists, returning the improved
// tour and its cost. With weights in {1,2} a 2-opt move improves the cost
// iff it converts more jumps into good steps than the reverse.
func TwoOptImprove(in *Instance, t Tour) (Tour, int) {
	n := len(t)
	tour := make(Tour, n)
	copy(tour, t)
	if n < 3 {
		return tour, in.Cost(tour)
	}
	improved := true
	for improved {
		improved = false
		// 2-opt: reverse tour[i..j].
		for i := 0; i < n-1 && !improved; i++ {
			for j := i + 1; j < n && !improved; j++ {
				delta := twoOptDelta(in, tour, i, j)
				if delta < 0 {
					reverse(tour[i : j+1])
					improved = true
				}
			}
		}
		if improved {
			continue
		}
		// Or-opt: move one city elsewhere.
		for i := 0; i < n && !improved; i++ {
			for j := 0; j < n && !improved; j++ {
				if j == i || j == i-1 {
					continue
				}
				cand := relocate(tour, i, j)
				if in.Cost(cand) < in.Cost(tour) {
					copy(tour, cand)
					improved = true
				}
			}
		}
	}
	return tour, in.Cost(tour)
}

// twoOptDelta returns the cost change of reversing tour[i..j].
func twoOptDelta(in *Instance, t Tour, i, j int) int {
	before, after := 0, 0
	if i > 0 {
		before += in.Weight(t[i-1], t[i])
		after += in.Weight(t[i-1], t[j])
	}
	if j < len(t)-1 {
		before += in.Weight(t[j], t[j+1])
		after += in.Weight(t[i], t[j+1])
	}
	return after - before
}

func reverse(a Tour) {
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
}

// relocate returns a copy of t with the city at position i reinserted
// after position j (positions refer to the original tour).
func relocate(t Tour, i, j int) Tour {
	out := make(Tour, 0, len(t))
	city := t[i]
	for k, v := range t {
		if k == i {
			continue
		}
		out = append(out, v)
		if k == j {
			out = append(out, city)
		}
	}
	if len(out) < len(t) { // j was i itself; append at end
		out = append(out, city)
	}
	return out
}

// GreedyPathCover partitions cities into vertex-disjoint good-edge chains
// grown greedily from both ends and concatenates the chains with jumps.
// It is a simple baseline against which the structured Theorem 3.1
// construction is compared in the E14 experiment.
func GreedyPathCover(in *Instance) (Tour, int) {
	n := in.N()
	used := make([]bool, n)
	var tour Tour
	for s := 0; s < n; s++ {
		if used[s] {
			continue
		}
		// Grow a chain from s in both directions along good edges.
		chain := []int{s}
		used[s] = true
		for extended := true; extended; {
			extended = false
			head := chain[0]
			for _, u := range in.Good.Neighbors(head) {
				if !used[u] {
					chain = append([]int{u}, chain...)
					used[u] = true
					extended = true
					break
				}
			}
			tail := chain[len(chain)-1]
			for _, u := range in.Good.Neighbors(tail) {
				if !used[u] {
					chain = append(chain, u)
					used[u] = true
					extended = true
					break
				}
			}
		}
		tour = append(tour, chain...)
	}
	return tour, in.Cost(tour)
}
