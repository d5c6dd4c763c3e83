package graph

import "fmt"

// NewBicliqueUnion returns the join graph of a grouping of tuples: left
// vertex i and right vertex j are joined iff left[i] == right[j] >= 0.
// Each entry is a group id below groups, or negative for a tuple in no
// group. The graph is a disjoint union of complete bipartite graphs, one
// per group with members on both sides, which is an equijoin's join
// graph with one group per shared value (§3.1), so everything follows
// from the groups' members: the m = Σ_g |L_g|·|R_g| edges, listed
// left-major with right indices ascending, the compressed sparse rows,
// neighbour-sorted by that order, and the component decomposition, each
// such group one component and every other tuple alone. Each is written
// in one sequential pass into buffers sized from the group counts, with
// no degree count or scattered fill over the edges, no sorted-span check
// and no BFS. The result is exactly NewBipartite's over that edge list,
// in edge ids, spans and components. NewBicliqueUnion panics on a group
// id at or above groups.
func NewBicliqueUnion(left, right []int32, groups int) *Bipartite {
	if groups < 0 {
		panic("graph: negative group count")
	}
	nl, nr := len(left), len(right)
	n := nl + nr
	// Group g's members are lMem[lOff[g]:lOff[g+1]] and
	// rMem[rOff[g]:rOff[g+1]], each ascending; rank[j] is right tuple
	// j's place among its group's right members.
	k := groups + 1
	buf := make([]int, 2*k+n+nr)
	lOff, rOff := buf[:k:k], buf[k:2*k:2*k]
	lMem, rMem, rank := buf[2*k:2*k+nl:2*k+nl], buf[2*k+nl:2*k+n:2*k+n], buf[2*k+n:]
	fileMembers(left, lOff, lMem, nil)
	fileMembers(right, rOff, rMem, rank)
	m, comps := 0, n
	for g := range groups {
		a, b := lOff[g+1]-lOff[g], rOff[g+1]-rOff[g]
		m += a * b
		if a > 0 && b > 0 {
			comps -= a + b - 1
		}
	}

	// Left vertex i's slots are its edges, so slot s < m holds edge s,
	// and right vertex j closes edge start[i]+rank[j] of each left member
	// i of its group. Every span is increasing by neighbour, so the
	// sorted spans are the same arrays.
	slots := 2 * m
	cbuf := make([]int, n+1+2*slots) // start, vert and edge in one allocation
	c := csr{start: cbuf[: n+1 : n+1]}
	c.vert, c.edge = cbuf[n+1:n+1+slots:n+1+slots], cbuf[n+1+slots:]
	c.sortedVert, c.sortedEdge = c.vert, c.edge
	edges := make([]Edge, m)
	s := 0
	for i, g := range left {
		c.start[i] = s
		if g >= 0 {
			for _, j := range rMem[rOff[g]:rOff[g+1]] {
				edges[s] = Edge{U: i, V: nl + j}
				c.vert[s], c.edge[s] = nl+j, s
				s++
			}
		}
	}
	for j, g := range right {
		c.start[nl+j] = s
		if g >= 0 {
			for _, i := range lMem[lOff[g]:lOff[g+1]] {
				c.vert[s], c.edge[s] = i, c.start[i]+rank[j]
				s++
			}
		}
	}
	c.start[n] = s

	// Components by smallest vertex: a two-sided group opens at its
	// first left member, with its left members' edges, and every other
	// tuple stands alone.
	d := components{start: make([]offset, 1, comps+1)}
	fbuf := make([]int, n+m)
	d.verts, d.edges = fbuf[:n:n], fbuf[n:]
	v, e := 0, 0
	for i, g := range left {
		switch {
		case g < 0 || rOff[g] == rOff[g+1]:
			d.verts[v] = i
			v++
		case lMem[lOff[g]] == i:
			for _, u := range lMem[lOff[g]:lOff[g+1]] {
				d.verts[v] = u
				v++
				e += copy(d.edges[e:], c.edge[c.start[u]:c.start[u+1]]) // u's edge ids
			}
			for _, j := range rMem[rOff[g]:rOff[g+1]] {
				d.verts[v] = nl + j
				v++
			}
		default:
			continue
		}
		d.start = append(d.start, offset{v: v, e: e})
	}
	for j, g := range right {
		if g < 0 || lOff[g] == lOff[g+1] {
			d.verts[v] = nl + j
			v++
			d.start = append(d.start, offset{v: v, e: e})
		}
	}

	gr := &Graph{n: n, edges: edges, csr: c, comp: d}
	gr.compOnce.Do(func() {}) // the decomposition is filed already
	return &Bipartite{g: gr, nLeft: nl, nRight: nr}
}

// fileMembers files the indices of ids by group, a counting sort: on
// return mem[off[g]:off[g+1]] lists the i with ids[i] == g, ascending,
// and rank, when not nil, holds each such i's place in its list.
func fileMembers(ids []int32, off, mem, rank []int) {
	groups := len(off) - 1
	for i, g := range ids {
		if int(g) >= groups {
			panic(fmt.Sprintf("graph: group %d out of range [0,%d)", g, groups))
		}
		if g >= 0 {
			if rank != nil {
				rank[i] = off[g+1]
			}
			off[g+1]++
		}
	}
	for g := range groups {
		off[g+1] += off[g]
	}
	// File with off[g] as group g's cursor; afterwards off[g] holds the
	// old off[g+1], so shifting by one restores the offsets.
	for i, g := range ids {
		if g >= 0 {
			mem[off[g]] = i
			off[g]++
		}
	}
	copy(off[1:], off[:groups])
	off[0] = 0
}
