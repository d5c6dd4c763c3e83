// Set-containment joins (§3.2): a product-catalog scenario — "find every
// (query, product) pair where the product carries all the query's tags" —
// run through four real algorithms, audited in the pebble model, plus the
// Lemma 3.3 universality construction showing containment joins can
// produce ANY join graph, including the Theorem 3.3 worst case.
package main

import (
	"context"
	"fmt"
	"log"

	"joinpebble"
	"joinpebble/internal/join"
	"joinpebble/internal/solver"
	"joinpebble/internal/workload"
)

func main() {
	// A correlated workload: probe sets are subsets of stored tag sets,
	// like user queries drawn from real product tags.
	w := workload.SetContainment{
		LeftSize: 60, RightSize: 80, Universe: 500,
		LeftMax: 3, RightMax: 10, Correlated: true,
	}
	queries, products := w.Generate(2024)
	ls, rs := queries.Sets(), products.Sets()

	b := joinpebble.ContainmentGraph(ls, rs)
	fmt.Printf("catalog join: %d queries x %d products, %d matches\n\n",
		len(ls), len(rs), b.M())

	// Every algorithm computes the same pairs; their emission orders
	// score differently in the pebble game.
	algos := []struct {
		name string
		run  func() []join.Pair
	}{
		{"nested loop", func() []join.Pair { return join.NestedLoop(ls, rs, join.Contains) }},
		{"signature NL (Helmer-Moerkotte)", func() []join.Pair { return join.SignatureNestedLoop(ls, rs) }},
		{"inverted index", func() []join.Pair { return join.InvertedIndexJoin(ls, rs) }},
		{"partitioned (PSJ-style)", func() []join.Pair { return join.PartitionedSetJoin(ls, rs, 16) }},
	}
	fmt.Printf("%-34s %8s %8s %8s\n", "algorithm", "pairs", "jumps", "perfect")
	for _, a := range algos {
		pairs := a.run()
		audit, err := joinpebble.AuditEmission(b, pairs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %8d %8d %8v\n", a.name, audit.Pairs, audit.Jumps, audit.Perfect)
	}

	// How close can ANY order get? Solve the pebbling problem itself.
	g, _ := b.Graph().WithoutIsolated()
	_, cost, err := solver.SolveAndVerify(context.Background(), solver.Approx125{}, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest order found by the Theorem 3.1 approximation: π̂ = %d (m = %d, bound %d)\n",
		cost, g.M(), solver.ApproxCostBound(g))

	// Universality (Lemma 3.3): containment joins can realize ANY
	// bipartite join graph — here, the Theorem 3.3 worst-case family,
	// which no equijoin can produce.
	hard := joinpebble.HardFamily(5)
	qs, ps := joinpebble.AsContainmentJoin(hard)
	back := joinpebble.ContainmentGraph(qs, ps)
	fmt.Printf("\nLemma 3.3: realized G_5 as a containment join; round trip exact: %v\n",
		back.Equal(hard))
	opt, err := joinpebble.OptimalCost(hard)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("π(G_5) = %d with m = %d — the 1.25m-1 worst case of Theorem 3.3\n",
		opt-1, hard.M())
}
