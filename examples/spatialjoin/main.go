// Spatial-overlap joins (§3.3): a map-overlay scenario — parcels joined
// with flood zones by rectangle overlap — computed three ways (nested
// loop, plane sweep, R-tree probe) and audited in the pebble model, plus
// the Lemma 3.4 construction realizing the worst-case G_n join graphs
// with rectangles.
package main

import (
	"fmt"
	"log"

	"joinpebble"
	"joinpebble/internal/join"
	"joinpebble/internal/spatial"
	"joinpebble/internal/workload"
)

func main() {
	// Clustered rectangles: parcels and hazard zones concentrate around
	// the same towns, the skew real spatial data shows.
	w := workload.Spatial{
		LeftSize: 120, RightSize: 90, Span: 200, MaxExtent: 8, Clusters: 4,
	}
	parcels, zones := w.Generate(7)
	ls, rs := parcels.Rects(), zones.Rects()

	b := joinpebble.OverlapGraph(ls, rs)
	fmt.Printf("overlay join: %d parcels x %d zones, %d overlaps\n\n", len(ls), len(rs), b.M())

	algos := []struct {
		name string
		run  func() []join.Pair
	}{
		{"nested loop", func() []join.Pair { return join.NestedLoop(ls, rs, join.Overlaps) }},
		{"plane sweep", func() []join.Pair { return join.SweepJoin(ls, rs) }},
		{"R-tree probe", func() []join.Pair { return join.RTreeJoin(ls, rs) }},
	}
	fmt.Printf("%-14s %8s %8s %8s\n", "algorithm", "pairs", "jumps", "perfect")
	for _, a := range algos {
		pairs := a.run()
		audit, err := joinpebble.AuditEmission(b, pairs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %8d %8d %8v\n", a.name, audit.Pairs, audit.Jumps, audit.Perfect)
	}

	// An R-tree at work: the same probe as an index lookup.
	tree := spatial.BuildRTree(rs)
	query := ls[0]
	fmt.Printf("\nR-tree (height %d) zones overlapping parcel 0 %v: %v\n",
		tree.Height(), query, tree.Search(query))

	// Lemma 3.4: rectangles realize the Theorem 3.3 worst-case family —
	// spatial joins are combinatorially as hard as joins get.
	n := 6
	r, s := joinpebble.AsSpatialJoin(n)
	hard := joinpebble.OverlapGraph(r, s)
	fmt.Printf("\nLemma 3.4: rectangle instance with join graph G_%d (m = %d)\n", n, hard.M())
	opt, err := joinpebble.OptimalCost(hard)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("π = %d vs the perfect-pebbling m = %d an equijoin of the same size would get\n",
		opt-1, hard.M())
	fmt.Printf("paper's bound 1.25m-1 = %.1f (Theorem 3.3)\n", 1.25*float64(hard.M())-1)
}
