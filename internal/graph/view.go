package graph

// LineGraphView is an implicit adjacency view of L(G): vertex i of the
// view is edge i of the base graph, and two view vertices are adjacent
// iff the underlying edges share an endpoint (§2.2). Unlike LineGraph it
// never materializes the O(Σ deg²) edge set — adjacency tests are O(1)
// endpoint comparisons and neighborhoods are walked directly off the
// base graph's incident-edge spans — which is what makes the Theorem 3.1
// construction affordable on dense instances (complete bipartite
// components, the G_n family) where |E(L(G))| dwarfs |E(G)|.
type LineGraphView struct {
	g *Graph
	c *csr
}

// NewLineGraphView returns the implicit line-graph view of g.
func NewLineGraphView(g *Graph) *LineGraphView {
	return &LineGraphView{g: g, c: &g.csr}
}

// HasEdge reports whether view vertices i and j are adjacent: the
// underlying edges are distinct and share an endpoint.
func (lv *LineGraphView) HasEdge(i, j int) bool {
	if i == j || i < 0 || j < 0 || i >= len(lv.g.edges) || j >= len(lv.g.edges) {
		return false
	}
	return lv.g.edges[i].SharesEndpoint(lv.g.edges[j])
}

// AppendNeighbors appends the neighbors of view vertex i to buf and
// returns the extended slice: the incident edges of both endpoints of
// base edge i, excluding i itself. The two spans are disjoint apart from
// i — a base edge sharing both endpoints with edge i would equal it — so
// no deduplication is needed.
func (lv *LineGraphView) AppendNeighbors(buf []int, i int) []int {
	e := lv.g.edges[i]
	c := lv.c
	for _, f := range c.edge[c.start[e.U]:c.start[e.U+1]] {
		if f != i {
			buf = append(buf, f)
		}
	}
	for _, f := range c.edge[c.start[e.V]:c.start[e.V+1]] {
		if f != i {
			buf = append(buf, f)
		}
	}
	return buf
}
