// Quickstart: build the join graph of a small equijoin, pebble it, and
// see Theorem 3.2 in action — equijoin graphs always admit a perfect
// pebbling (π = m), found in linear time, and the zigzag sort-merge
// emission order IS that perfect pebbling.
package main

import (
	"fmt"
	"log"

	"joinpebble"
	"joinpebble/internal/join"
)

func main() {
	// Two single-column relations; the join predicate is equality (§3.1).
	r := []int64{10, 20, 20, 30}
	s := []int64{20, 20, 30, 40}

	// The join graph: one vertex per tuple, one edge per joining pair.
	b := joinpebble.EquijoinGraph(r, s)
	fmt.Printf("join graph: %d x %d tuples, m = %d result pairs\n",
		b.NLeft(), b.NRight(), b.M())

	// Pebble it. The engine planner recognizes the equijoin structure
	// (every component is complete bipartite) and routes to the
	// linear-time boustrophedon pebbler of Lemma 3.2.
	scheme, cost, err := joinpebble.Pebble(b)
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := joinpebble.Bounds(b)
	fmt.Printf("pebbling cost π̂ = %d (universal bounds %d..%d)\n", cost, lo, hi)
	fmt.Printf("effective cost π = %d, m = %d -> perfect: %v\n",
		joinpebble.EffectiveCost(b, scheme), b.M(), joinpebble.IsPerfect(b, scheme))

	fmt.Println("\nconfiguration sequence (left tuple, right tuple offsets):")
	for i, c := range scheme {
		fmt.Printf("  move %d: pebbles on %v\n", i+1, c)
	}

	// The same thing through a real algorithm: the zigzag sort-merge's
	// own emission order scores π = m in the model (§4's remark that the
	// Theorem 4.1 construction mirrors the merge phase of sort-merge).
	pairs := join.SortMergeZigzag(r, s)
	audit, err := joinpebble.AuditEmission(b, pairs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nzigzag sort-merge emission: %d pairs, %d jumps, perfect: %v\n",
		audit.Pairs, audit.Jumps, audit.Perfect)

	// The textbook rewind merge is NOT perfect: it jumps once per left
	// tuple switch inside each value group.
	rewind := join.SortMerge(r, s)
	audit2, err := joinpebble.AuditEmission(b, rewind)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rewind sort-merge emission: %d pairs, %d jumps, perfect: %v\n",
		audit2.Pairs, audit2.Jumps, audit2.Perfect)
}
