package graph

import (
	"fmt"
	"strings"
)

// Bipartite is a bipartite graph G = (R, S, E) in the paper's sense: the
// join graph of two relations. Left vertices model tuples of R, right
// vertices tuples of S. Internally it embeds a Graph where left vertex i
// is vertex i and right vertex j is vertex NLeft()+j, so all Graph
// machinery (components, DFS, line graph) applies directly.
type Bipartite struct {
	g      *Graph
	nLeft  int
	nRight int
}

// NewBipartite returns the bipartite graph with the given side sizes and
// edges, each given as Edge{U: left index, V: right index}. As in New, a
// repeated pair keeps the index of its first occurrence, and NewBipartite
// takes ownership of edges. It panics on an index outside its side. A
// join graph whose tuples fall into value groups, as an equijoin's do,
// needs no edge list: NewBicliqueUnion writes the same graph from the
// groups.
func NewBipartite(nLeft, nRight int, edges []Edge) *Bipartite {
	if nLeft < 0 || nRight < 0 {
		panic("graph: negative side size")
	}
	b := &Bipartite{nLeft: nLeft, nRight: nRight}
	for i, e := range edges {
		b.checkLeft(e.U)
		b.checkRight(e.V)
		edges[i].V += nLeft
	}
	b.g = New(nLeft+nRight, edges)
	return b
}

// NLeft returns the number of left (R-side) vertices.
func (b *Bipartite) NLeft() int { return b.nLeft }

// NRight returns the number of right (S-side) vertices.
func (b *Bipartite) NRight() int { return b.nRight }

// M returns the number of edges — the join's output size, the paper's
// input-size parameter m.
func (b *Bipartite) M() int { return b.g.M() }

// HasEdge reports whether left l and right r are joined.
func (b *Bipartite) HasEdge(l, r int) bool {
	if l < 0 || l >= b.nLeft || r < 0 || r >= b.nRight {
		return false
	}
	return b.g.HasEdge(l, b.nLeft+r)
}

// Graph returns the underlying general graph.
func (b *Bipartite) Graph() *Graph { return b.g }

// Side reports which side vertex v (in underlying-graph numbering) lies
// on: true for left.
func (b *Bipartite) Side(v int) bool { return v < b.nLeft }

// LeftVertex converts a left index to underlying-graph numbering.
func (b *Bipartite) LeftVertex(l int) int {
	b.checkLeft(l)
	return l
}

// RightVertex converts a right index to underlying-graph numbering.
func (b *Bipartite) RightVertex(r int) int {
	b.checkRight(r)
	return b.nLeft + r
}

// EdgeAt returns the i-th edge as a (left, right) index pair.
func (b *Bipartite) EdgeAt(i int) (l, r int) {
	e := b.g.EdgeAt(i)
	if e.U < b.nLeft {
		return e.U, e.V - b.nLeft
	}
	return e.V, e.U - b.nLeft
}

// Equal reports whether b and c have the same side sizes and edge sets.
func (b *Bipartite) Equal(c *Bipartite) bool {
	return b.nLeft == c.nLeft && b.nRight == c.nRight && b.g.Equal(c.g)
}

// String renders edges as l-r pairs in (left,right) index space.
func (b *Bipartite) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bipartite{%dx%d m=%d [", b.nLeft, b.nRight, b.M())
	for i := 0; i < b.M(); i++ {
		l, r := b.EdgeAt(i)
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d-%d", l, r)
	}
	sb.WriteString("]}")
	return sb.String()
}

func (b *Bipartite) checkLeft(l int) {
	if l < 0 || l >= b.nLeft {
		panic(fmt.Sprintf("graph: left vertex %d out of range [0,%d)", l, b.nLeft))
	}
}

func (b *Bipartite) checkRight(r int) {
	if r < 0 || r >= b.nRight {
		panic(fmt.Sprintf("graph: right vertex %d out of range [0,%d)", r, b.nRight))
	}
}

// IsBipartition verifies by 2-coloring that g is bipartite and, if so,
// returns one valid side assignment (true = left). The second return is
// false when g contains an odd cycle.
func IsBipartition(g *Graph) ([]bool, bool) {
	color := make([]int, g.N()) // 0 unset, 1 left, 2 right
	for s := 0; s < g.N(); s++ {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(v) {
				if color[w] == 0 {
					color[w] = 3 - color[v]
					queue = append(queue, w)
				} else if color[w] == color[v] {
					return nil, false
				}
			}
		}
	}
	side := make([]bool, g.N())
	for v, c := range color {
		side[v] = c == 1
	}
	return side, true
}

// FromGraph reinterprets a bipartite general graph as a Bipartite by
// 2-coloring it. Vertices keep their relative order within each side. It
// returns the bipartite graph plus maps from original vertex id to
// (isLeft, side index). It fails if g is not bipartite.
func FromGraph(g *Graph) (*Bipartite, []bool, []int, error) {
	side, ok := IsBipartition(g)
	if !ok {
		return nil, nil, nil, fmt.Errorf("graph: not bipartite (odd cycle)")
	}
	idx := make([]int, g.N())
	nl, nr := 0, 0
	for v := 0; v < g.N(); v++ {
		if side[v] {
			idx[v] = nl
			nl++
		} else {
			idx[v] = nr
			nr++
		}
	}
	edges := make([]Edge, len(g.edges))
	for i, e := range g.edges {
		if side[e.U] {
			edges[i] = Edge{U: idx[e.U], V: idx[e.V]}
		} else {
			edges[i] = Edge{U: idx[e.V], V: idx[e.U]}
		}
	}
	return NewBipartite(nl, nr, edges), side, idx, nil
}

// CompleteBipartite returns K_{k,l} with edges in the boustrophedon order
// used by Lemma 3.2's perfect pebbling.
func CompleteBipartite(k, l int) *Bipartite {
	edges := make([]Edge, 0, k*l)
	for i := 0; i < k; i++ {
		for j := 0; j < l; j++ {
			edges = append(edges, Edge{U: i, V: j})
		}
	}
	return NewBipartite(k, l, edges)
}

// Matching returns a perfect matching with m edges (Lemma 2.4's family).
func Matching(m int) *Bipartite {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{U: i, V: i}
	}
	return NewBipartite(m, m, edges)
}

// PathBipartite returns a path with m edges, alternating sides.
func PathBipartite(m int) *Bipartite {
	nl := (m + 2) / 2
	nr := (m + 1) / 2
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{U: (i + 1) / 2, V: i / 2}
	}
	return NewBipartite(nl, nr, edges)
}

// CycleBipartite returns an even cycle with m edges (m must be even, >= 4).
func CycleBipartite(m int) *Bipartite {
	if m < 4 || m%2 != 0 {
		panic("graph: bipartite cycle needs even m >= 4")
	}
	n := m / 2
	edges := make([]Edge, 0, m)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{U: i, V: i}, Edge{U: (i + 1) % n, V: i})
	}
	return NewBipartite(n, n, edges)
}

// GridBipartite returns the rows x cols grid graph (always bipartite).
func GridBipartite(rows, cols int) *Bipartite {
	var edges []Edge
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{U: at(r, c), V: at(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{U: at(r, c), V: at(r+1, c)})
			}
		}
	}
	b, _, _, err := FromGraph(New(rows*cols, edges))
	if err != nil {
		panic("graph: grid must be bipartite: " + err.Error())
	}
	return b
}
