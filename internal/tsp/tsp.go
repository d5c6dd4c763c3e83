// Package tsp implements the traveling-salesman-with-distances-1-and-2
// machinery of §2.2 and §4. An instance is a complete weighted graph
// described by its weight-1 ("good") edge graph: pairs joined in the
// graph cost 1, all other pairs cost 2. A tour is a visit order over all
// vertices — a Hamiltonian path of the complete graph, measured as the
// paper measures it: the first vertex costs 0, so a tour over n vertices
// costs n−1+J where J is the number of jumps (weight-2 steps).
//
// For a line graph L(G) this is exactly the pebbling problem:
// Proposition 2.2 states the optimal tour of L(G) costs π(G) − 1.
package tsp

import (
	"fmt"

	"joinpebble/internal/graph"
)

// Instance is a TSP(1,2) instance. Good is the weight-1 edge graph; every
// vertex pair absent from Good has weight 2.
type Instance struct {
	Good *graph.Graph
}

// NewInstance wraps a good-edge graph as a TSP(1,2) instance.
func NewInstance(good *graph.Graph) *Instance { return &Instance{Good: good} }

// N returns the number of cities.
func (in *Instance) N() int { return in.Good.N() }

// Weight returns the step cost between u and v: 1 for a good edge, 2
// otherwise.
func (in *Instance) Weight(u, v int) int {
	if in.Good.HasEdge(u, v) {
		return 1
	}
	return 2
}

// Tour is a visit order over all cities, each exactly once.
type Tour []int

// Validate checks that t visits every city of in exactly once.
func (in *Instance) Validate(t Tour) error {
	if len(t) != in.N() {
		return fmt.Errorf("tsp: tour visits %d of %d cities", len(t), in.N())
	}
	seen := make([]bool, in.N())
	for _, v := range t {
		if v < 0 || v >= in.N() {
			return fmt.Errorf("tsp: city %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("tsp: city %d visited twice", v)
		}
		seen[v] = true
	}
	return nil
}

// Cost returns the tour cost n−1+J (first city free, per §2.2's footnote).
// It panics if t is not a permutation of the cities; use Validate first
// for untrusted input.
func (in *Instance) Cost(t Tour) int {
	if err := in.Validate(t); err != nil {
		panic(err)
	}
	cost := 0
	for i := 1; i < len(t); i++ {
		cost += in.Weight(t[i-1], t[i])
	}
	return cost
}

// Jumps returns J, the number of weight-2 steps in t (§2.2).
func (in *Instance) Jumps(t Tour) int {
	j := 0
	for i := 1; i < len(t); i++ {
		if !in.Good.HasEdge(t[i-1], t[i]) {
			j++
		}
	}
	return j
}
