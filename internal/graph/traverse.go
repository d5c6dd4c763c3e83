package graph

// Components returns the connected components of g as slices of vertex
// ids, each sorted ascending, ordered by their smallest vertex. Isolated
// vertices form singleton components.
func (g *Graph) Components() [][]int {
	label, count := g.ComponentLabels()
	comps := make([][]int, count)
	for v, c := range label {
		comps[c] = append(comps[c], v)
	}
	return comps
}

// ComponentLabels returns, for every vertex, the index of its connected
// component in Components' order (by smallest vertex), and the number of
// components.
func (g *Graph) ComponentLabels() (label []int, count int) {
	label = make([]int, g.n)
	for v := range label {
		label[v] = -1
	}
	queue := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		if label[s] >= 0 {
			continue
		}
		label[s] = count
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			for _, w := range g.Neighbors(queue[head]) {
				if label[w] < 0 {
					label[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return label, count
}

// ComponentCount returns β₀(G), the number of connected components — the
// 0th Betti number used in Definition 2.2's effective cost.
func (g *Graph) ComponentCount() int {
	_, count := g.ComponentLabels()
	return count
}

// Connected reports whether g is connected. The empty graph and the
// single-vertex graph count as connected.
func (g *Graph) Connected() bool {
	return g.ComponentCount() <= 1
}
