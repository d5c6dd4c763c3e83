package reduction

import (
	"fmt"

	"joinpebble/internal/graph"
	"joinpebble/internal/tsp"
)

// Degree4To3 is the Theorem 4.3 L-reduction from TSP-4(1,2) to
// TSP-3(1,2): every degree-4 vertex of G is replaced by a diamond gadget
// whose four corners absorb the four incident edges; vertices of degree
// at most 3 are kept as-is.
type Degree4To3 struct {
	// G is the input instance's good-edge graph (max degree 4).
	G *graph.Graph
	// H is the output instance's good-edge graph (max degree 3).
	H *graph.Graph
	// NodeOf maps every H vertex to the G vertex it represents.
	NodeOf []int

	plainOf    []int // G vertex -> H vertex for kept vertices, -1 for gadgets
	gadgetBase []int // G vertex -> first H vertex of its gadget, -1 for plain
	cornerOf   map[cornerKey]int
}

type cornerKey struct {
	v    int // G vertex (a gadget vertex)
	edge int // G edge index incident to v
}

// NewDegree4To3 builds f(G). It fails if G has a vertex of degree > 4.
func NewDegree4To3(g *graph.Graph) (*Degree4To3, error) {
	if d := g.MaxDegree(); d > 4 {
		return nil, fmt.Errorf("reduction: max degree %d > 4", d)
	}
	r := &Degree4To3{
		G:          g,
		plainOf:    make([]int, g.N()),
		gadgetBase: make([]int, g.N()),
		cornerOf:   make(map[cornerKey]int),
	}
	// Count H vertices.
	total := 0
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 4 {
			r.plainOf[v] = -1
			r.gadgetBase[v] = total
			total += GadgetSize
		} else {
			r.plainOf[v] = total
			r.gadgetBase[v] = -1
			total++
		}
	}
	var hEdges []graph.Edge
	r.NodeOf = make([]int, total)
	gadget := NewGadget()
	for v := 0; v < g.N(); v++ {
		if r.gadgetBase[v] >= 0 {
			base := r.gadgetBase[v]
			for i := 0; i < GadgetSize; i++ {
				r.NodeOf[base+i] = v
			}
			for _, e := range gadget.Edges() {
				hEdges = append(hEdges, graph.Edge{U: base + e.U, V: base + e.V})
			}
			// Assign the four incident edges to the four corners, in
			// incidence order.
			for k, ei := range g.IncidentEdges(v) {
				r.cornerOf[cornerKey{v: v, edge: ei}] = base + Corners[k]
			}
		} else {
			r.NodeOf[r.plainOf[v]] = v
		}
	}
	// Original edges connect corners/plain endpoints.
	for ei, e := range g.Edges() {
		hEdges = append(hEdges, graph.Edge{U: r.endpointInH(e.U, ei), V: r.endpointInH(e.V, ei)})
	}
	r.H = graph.New(total, hEdges)
	return r, nil
}

// endpointInH returns the H vertex where G edge ei attaches at G vertex v.
func (r *Degree4To3) endpointInH(v, ei int) int {
	if r.plainOf[v] >= 0 {
		return r.plainOf[v]
	}
	c, ok := r.cornerOf[cornerKey{v: v, edge: ei}]
	if !ok {
		panic("reduction: edge not assigned to a corner")
	}
	return c
}

// Instances returns the two TSP(1,2) instances.
func (r *Degree4To3) Instances() (g4, h3 *tsp.Instance) {
	return tsp.NewInstance(r.G), tsp.NewInstance(r.H)
}

// ForwardTour lifts a tour of G to a tour of H with the same number of
// jumps: each gadget vertex is expanded to a corner-to-corner Hamiltonian
// path of its diamond, entering/leaving at the corners that carry the
// tour's incident G edges (the construction in Theorem 4.3's property-1
// argument). This witnesses OPT(H) <= cost over H of the lifted optimal
// G tour.
func (r *Degree4To3) ForwardTour(t tsp.Tour) (tsp.Tour, error) {
	gin := tsp.NewInstance(r.G)
	if err := gin.Validate(t); err != nil {
		return nil, err
	}
	var out tsp.Tour
	for i, v := range t {
		if r.plainOf[v] >= 0 {
			out = append(out, r.plainOf[v])
			continue
		}
		base := r.gadgetBase[v]
		entry, exit := -1, -1
		if i > 0 {
			if ei, ok := r.G.EdgeIndex(t[i-1], v); ok {
				entry = r.cornerOf[cornerKey{v: v, edge: ei}] - base
			}
		}
		if i < len(t)-1 {
			if ei, ok := r.G.EdgeIndex(v, t[i+1]); ok {
				exit = r.cornerOf[cornerKey{v: v, edge: ei}] - base
			}
		}
		entry, exit = pickDistinctCorners(entry, exit)
		for _, x := range CornerPath(entry, exit) {
			out = append(out, base+x)
		}
	}
	return out, nil
}

// pickDistinctCorners fills in free corner choices (-1) so the two are
// distinct corners.
func pickDistinctCorners(entry, exit int) (int, int) {
	if entry == -1 {
		for _, c := range Corners {
			if c != exit {
				entry = c
				break
			}
		}
	}
	if exit == -1 {
		for _, c := range Corners {
			if c != entry {
				exit = c
				break
			}
		}
	}
	return entry, exit
}

// BackTour is the g of the L-reduction: it maps any tour of H to a tour
// of G by first-visit projection, after first making the tour "nice"
// (each diamond visited contiguously) per Theorem 4.3's conversion. Both
// the raw and niceified projections are polished with 2-opt — still
// polynomial, and it absorbs the O(1) slack the substituted gadget's
// hub-endpoint tours can introduce — and the cheaper tour is returned.
func (r *Degree4To3) BackTour(t tsp.Tour) (tsp.Tour, error) {
	hin := tsp.NewInstance(r.H)
	if err := hin.Validate(t); err != nil {
		return nil, err
	}
	gin := tsp.NewInstance(r.G)
	raw, rawCost := tsp.TwoOptImprove(gin, r.project(t))
	nice, niceCost := tsp.TwoOptImprove(gin, r.project(r.Niceify(t)))
	if niceCost <= rawCost {
		return nice, nil
	}
	return raw, nil
}

// project collapses an H tour to a G tour by order of first visit.
func (r *Degree4To3) project(t tsp.Tour) tsp.Tour {
	seen := make([]bool, r.G.N())
	var out tsp.Tour
	for _, hv := range t {
		gv := r.NodeOf[hv]
		if !seen[gv] {
			seen[gv] = true
			out = append(out, gv)
		}
	}
	return out
}

// Niceify rewrites an H tour so that every diamond's vertices appear
// consecutively: per gadget, one segment (a maximal run of the gadget's
// vertices, preferring one whose boundary steps are good) is replaced by
// a corner-to-corner Hamiltonian path of the gadget, and all other
// segments of that gadget are bypassed — the conversion in Theorem 4.3's
// property-2 argument.
func (r *Degree4To3) Niceify(t tsp.Tour) tsp.Tour {
	cur := append(tsp.Tour(nil), t...)
	for v := 0; v < r.G.N(); v++ {
		if r.gadgetBase[v] >= 0 {
			cur = r.niceifyOne(cur, v)
		}
	}
	return cur
}

func (r *Degree4To3) niceifyOne(t tsp.Tour, v int) tsp.Tour {
	base := r.gadgetBase[v]
	inGadget := func(hv int) bool { return hv >= base && hv < base+GadgetSize }

	// Locate maximal segments [start,end] of gadget-v vertices.
	type segment struct{ start, end int }
	var segs []segment
	for i := 0; i < len(t); {
		if !inGadget(t[i]) {
			i++
			continue
		}
		j := i
		for j+1 < len(t) && inGadget(t[j+1]) {
			j++
		}
		segs = append(segs, segment{start: i, end: j})
		i = j + 1
	}
	if len(segs) == 1 && segs[0].end-segs[0].start+1 == GadgetSize {
		return t // already nice for this gadget
	}

	// Choose the segment to keep: prefer one entered and left via good
	// edges (the "perfect segment" preference in the paper's procedure).
	keep := 0
	for k, s := range segs {
		if r.segmentBoundaryGood(t, s.start, s.end) {
			keep = k
			break
		}
	}

	// Entry/exit corners: preserve corner endpoints of the kept segment
	// when they are corners, else pick free ones.
	entry, exit := -1, -1
	if c := t[segs[keep].start] - base; isCorner(c) {
		entry = c
	}
	if c := t[segs[keep].end] - base; isCorner(c) && c != entry {
		exit = c
	}
	entry, exit = pickDistinctCorners(entry, exit)
	replacement := make([]int, 0, GadgetSize)
	for _, x := range CornerPath(entry, exit) {
		replacement = append(replacement, base+x)
	}

	// Rebuild: kept segment -> full gadget path, other segments dropped.
	var out tsp.Tour
	for i := 0; i < len(t); {
		if !inGadget(t[i]) {
			out = append(out, t[i])
			i++
			continue
		}
		j := i
		for j+1 < len(t) && inGadget(t[j+1]) {
			j++
		}
		if i == segs[keep].start {
			out = append(out, replacement...)
		}
		i = j + 1
	}
	return out
}

// segmentBoundaryGood reports whether the tour enters and leaves the
// segment via weight-1 edges (tour ends count as good boundaries).
func (r *Degree4To3) segmentBoundaryGood(t tsp.Tour, start, end int) bool {
	if start > 0 && !r.H.HasEdge(t[start-1], t[start]) {
		return false
	}
	if end < len(t)-1 && !r.H.HasEdge(t[end], t[end+1]) {
		return false
	}
	return true
}

func isCorner(c int) bool { return c >= 0 && c < 4 }
