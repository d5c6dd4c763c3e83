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

// DFSTree is a rooted spanning tree of one connected component, produced
// by DFSFrom. Parent[root] == -1; Parent[v] == -2 for vertices outside the
// component. Children lists preserve DFS visit order. Order lists the
// vertices in DFS preorder.
type DFSTree struct {
	Root     int
	Parent   []int
	Children [][]int
	Order    []int
}

// DFSFrom runs an iterative depth-first search from root and returns the
// DFS tree of root's component. In a DFS tree of an undirected graph there
// are no cross edges, so children of a common parent are pairwise
// non-adjacent — the property Theorem 3.1's construction relies on.
func (g *Graph) DFSFrom(root int) *DFSTree {
	g.checkVertex(root)
	t := &DFSTree{
		Root:     root,
		Parent:   make([]int, g.n),
		Children: make([][]int, g.n),
	}
	for i := range t.Parent {
		t.Parent[i] = -2
	}
	t.Parent[root] = -1

	// Iterative DFS with an explicit stack of (vertex, next-neighbor
	// cursor) to avoid recursion depth limits on long paths.
	type frame struct {
		v, next int
	}
	stack := []frame{{v: root}}
	t.Order = append(t.Order, root)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		nbs := g.Neighbors(f.v)
		advanced := false
		for f.next < len(nbs) {
			w := nbs[f.next]
			f.next++
			if t.Parent[w] == -2 {
				t.Parent[w] = f.v
				t.Children[f.v] = append(t.Children[f.v], w)
				t.Order = append(t.Order, w)
				stack = append(stack, frame{v: w})
				advanced = true
				break
			}
		}
		if !advanced {
			stack = stack[:len(stack)-1]
		}
	}
	return t
}

// SubtreeSize returns, for every vertex in the tree's component, the size
// of the subtree rooted at it (counting itself); 0 for vertices outside
// the component.
func (t *DFSTree) SubtreeSize() []int {
	size := make([]int, len(t.Parent))
	// Order is a preorder, so children appear after parents; accumulate in
	// reverse.
	for i := len(t.Order) - 1; i >= 0; i-- {
		v := t.Order[i]
		size[v]++
		if p := t.Parent[v]; p >= 0 {
			size[p] += size[v]
		}
	}
	return size
}

// SubtreeVertices returns the vertices of the subtree rooted at r in
// preorder.
func (t *DFSTree) SubtreeVertices(r int) []int {
	out := []int{r}
	for i := 0; i < len(out); i++ {
		out = append(out, t.Children[out[i]]...)
	}
	return out
}

// BFSDistances returns the BFS distance from s to every vertex (-1 where
// unreachable).
func (g *Graph) BFSDistances(s int) []int {
	g.checkVertex(s)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}
