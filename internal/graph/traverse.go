package graph

// components is a graph's connected-component decomposition, derived
// once per graph, or filed by NewBicliqueUnion as it builds: the
// connected component is the unit of every pebbling computation (Lemma
// 2.2), so the solvers, the planner, the β₀ count and the canonical
// fingerprint all read this one copy. Components are numbered by their
// smallest vertex.
type components struct {
	verts []int    // the vertices filed by component, ascending within each
	edges []int    // the edge ids filed by component, ascending within each
	start []offset // component c holds verts[start[c].v:start[c+1].v] and edges[start[c].e:start[c+1].e]
}

// offset is where a component's vertices and edges begin in the filed
// lists.
type offset struct{ v, e int }

// components returns g's decomposition, deriving it on the first call.
// Concurrent first calls wait for one derivation and all see its result.
func (g *Graph) components() *components {
	g.compOnce.Do(g.decompose)
	return &g.comp
}

// decompose runs one BFS per component, with verts as the queue, so each
// component's vertices land in one run of verts and the degrees it sums
// count its edges twice. One counting pass each then files the vertices
// in ascending order and the edges by component: O(n + m).
func (g *Graph) decompose() {
	n, m, c := g.n, len(g.edges), &g.csr
	buf := make([]int, 2*n+m)
	// label[v] is v's component plus one, 0 until the BFS reaches v.
	label, verts, edges := buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
	start := make([]offset, 1, 8) // room for seven components before it grows
	for s := 0; s < n; s++ {
		if label[s] > 0 {
			continue
		}
		ci, last := len(start), start[len(start)-1]
		label[s] = ci
		verts[last.v] = s
		head, tail, slots := last.v, last.v+1, 0
		for ; head < tail; head++ {
			u := verts[head]
			slots += c.degree(u)
			for _, w := range c.vert[c.start[u]:c.start[u+1]] {
				if label[w] == 0 {
					label[w] = ci
					verts[tail] = w
					tail++
				}
			}
		}
		start = append(start, offset{v: tail, e: last.e + slots/2})
	}
	// File with start[c] as component c's cursor; afterwards start[c]
	// holds the old start[c+1], so shifting by one restores the offsets.
	// A run of ids in one component advances a local cursor.
	for v := 0; v < n; {
		ci := label[v]
		k := start[ci-1].v
		for ; v < n && label[v] == ci; v++ {
			verts[k] = v
			k++
		}
		start[ci-1].v = k
	}
	for i := 0; i < m; {
		ci := label[g.edges[i].U]
		k := start[ci-1].e
		for ; i < m && label[g.edges[i].U] == ci; i++ {
			edges[k] = i
			k++
		}
		start[ci-1].e = k
	}
	copy(start[1:], start)
	start[0] = offset{}
	g.comp = components{verts: verts, edges: edges, start: start}
}

// Components returns the connected components of g as slices of vertex
// ids, each sorted ascending, ordered by their smallest vertex. Isolated
// vertices form singleton components. The outer slice is fresh, so
// callers may reorder it; the inner slices are the graph's own storage
// and must not be mutated.
func (g *Graph) Components() [][]int {
	comps := make([][]int, g.ComponentCount())
	for ci := range comps {
		comps[ci], _ = g.Component(ci)
	}
	return comps
}

// Component returns the vertices and the edge ids of the connected
// component numbered ci in Components' order, each ascending; an
// isolated vertex has no edges. Both slices are the graph's own storage
// and must not be mutated.
func (g *Graph) Component(ci int) (verts, edges []int) {
	d := g.components()
	lo, hi := d.start[ci], d.start[ci+1]
	return d.verts[lo.v:hi.v:hi.v], d.edges[lo.e:hi.e:hi.e]
}

// ComponentCount returns β₀(G), the number of connected components — the
// 0th Betti number used in Definition 2.2's effective cost.
func (g *Graph) ComponentCount() int {
	return len(g.components().start) - 1
}

// Connected reports whether g is connected. The empty graph and the
// single-vertex graph count as connected.
func (g *Graph) Connected() bool {
	return g.ComponentCount() <= 1
}
