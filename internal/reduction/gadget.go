// Package reduction implements the Section 4 hardness machinery:
// the diamond gadget of Figure 2, the TSP-4(1,2) → TSP-3(1,2) L-reduction
// of Theorem 4.3, the TSP-3(1,2) → PEBBLE incidence-graph L-reduction of
// Theorem 4.4, and checkers that verify the L-reduction inequalities
// (Definition 4.2) empirically against the exact solvers.
package reduction

import "joinpebble/internal/graph"

// GadgetSize is the number of vertices in the diamond gadget.
const GadgetSize = 10

// Gadget vertex roles. Corners receive one external edge each in the
// Theorem 4.3 construction; rim and hub vertices are internal.
const (
	CornerA = 0
	CornerB = 1
	CornerC = 2
	CornerD = 3
	rimX    = 4
	rimY    = 5
	rimZ    = 6
	rimW    = 7
	hubE    = 8
	hubF    = 9
)

// Corners lists the gadget's corner vertices.
var Corners = [4]int{CornerA, CornerB, CornerC, CornerD}

// NewGadget returns the diamond gadget standing in for Figure 2: an
// 8-cycle alternating corners and rim vertices, with a two-vertex hub
// attached to the rim:
//
//	    a
//	  w   x
//	d   |   b      cycle a-x-b-y-c-z-d-w-a
//	  z   y        hub: e-x, e-y, f-z, f-w, e-f
//	    c
//
// The exact Figure 2 drawing is not recoverable from the paper text, so
// this gadget was found by search and verified exhaustively (see the
// package tests) to satisfy the properties Theorem 4.3 uses:
//
//   - corners have internal degree 2 (so one external edge keeps the
//     TSP-3(1,2) degree bound) and all other vertices degree 3;
//   - a Hamiltonian path of the gadget exists between every pair of
//     corners;
//   - no Hamiltonian path ends at a rim vertex.
//
// One documented deviation from the paper's stated gadget: Hamiltonian
// paths may end at the two hub vertices (paired with a corner). A tour
// has only two ends, so this slack is O(1) per tour; the L-reduction
// inequalities of Definition 4.2 are verified empirically in the E11
// experiment rather than inherited from [10].
func NewGadget() *graph.Graph {
	var edges []graph.Edge
	cycle := []int{CornerA, rimX, CornerB, rimY, CornerC, rimZ, CornerD, rimW}
	for i := range cycle {
		edges = append(edges, graph.Edge{U: cycle[i], V: cycle[(i+1)%len(cycle)]})
	}
	edges = append(edges,
		graph.Edge{U: hubE, V: rimX},
		graph.Edge{U: hubE, V: rimY},
		graph.Edge{U: hubF, V: rimZ},
		graph.Edge{U: hubF, V: rimW},
		graph.Edge{U: hubE, V: hubF})
	return graph.New(GadgetSize, edges)
}

// gadgetCornerPaths holds one Hamiltonian path of the gadget per corner
// pair, computed once.
var gadgetCornerPaths = buildCornerPaths()

func buildCornerPaths() map[[2]int][]int {
	g := NewGadget()
	out := make(map[[2]int][]int, 12)
	for _, from := range Corners {
		for _, to := range Corners {
			if from == to {
				continue
			}
			path, ok := graph.HamiltonianPathBetween(g, from, to)
			if !ok {
				panic("reduction: gadget lost a corner-pair Hamiltonian path")
			}
			out[[2]int{from, to}] = path
		}
	}
	return out
}

// CornerPath returns a Hamiltonian path of the gadget from one corner to
// another (distinct) corner.
func CornerPath(from, to int) []int {
	p, ok := gadgetCornerPaths[[2]int{from, to}]
	if !ok {
		panic("reduction: CornerPath needs two distinct corners")
	}
	return p
}
