// Hardness tour (§4): watch the exact solver's exponential wall against
// the equijoin pebbler's linear time (Theorems 4.1 vs 4.2), then drive
// both Section 4 L-reductions end to end — TSP-4(1,2) through the diamond
// gadget into TSP-3(1,2), and TSP-3(1,2) through the incidence graph into
// PEBBLE — checking the Definition 4.2 inequalities with exact optima.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
	"joinpebble/internal/reduction"
	"joinpebble/internal/solver"
	"joinpebble/internal/tsp"
)

func main() {
	exponentialVsLinear()
	diamondReduction()
	incidenceReduction()
}

func exponentialVsLinear() {
	fmt.Println("== Theorem 4.2 vs 4.1: exact solving explodes, equijoins stay linear ==")
	for _, n := range []int{5, 7, 9} {
		g := family.Spider(n).Graph()
		start := obs.Now()
		cost, err := solver.OptimalCost(g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  spider-%d (m=%2d): exact π̂=%d in %v\n", n, g.M(), cost, obs.Since(start).Round(time.Microsecond))
	}
	for _, k := range []int{100, 1000} {
		g := graph.CompleteBipartite(k, 50).Graph()
		start := obs.Now()
		_, cost, err := solver.SolveAndVerify(context.Background(), solver.Equijoin{}, g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  K(%d,50) (m=%d): equijoin π̂=%d in %v\n", k, g.M(), cost, obs.Since(start).Round(time.Microsecond))
	}
}

func diamondReduction() {
	fmt.Println("\n== Theorem 4.3: TSP-4(1,2) -> TSP-3(1,2) via the diamond gadget ==")
	rng := rand.New(rand.NewSource(99))
	g := graph.RandomConnectedGraph(rng, 5, 7, 4)
	r, err := reduction.NewDegree4To3(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  G: %d vertices, %d edges (max degree %d)\n", g.N(), g.M(), g.MaxDegree())
	fmt.Printf("  H = f(G): %d vertices (max degree %d)\n", r.H.N(), r.H.MaxDegree())

	var tours []tsp.Tour
	for k := 0; k < 8; k++ {
		tours = append(tours, tsp.Tour(rng.Perm(r.H.N())))
	}
	check, err := reduction.CheckDegree4To3(r, tours)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  OPT(G)=%d  OPT(H)=%d  alpha=%.2f (bound: gadget size %d)\n",
		check.OptA, check.OptB, check.Alpha, reduction.GadgetSize)
	fmt.Printf("  beta=1 violations over %d sampled tours: %d\n", check.Samples, check.MaxBetaViolation)
}

func incidenceReduction() {
	fmt.Println("\n== Theorem 4.4: TSP-3(1,2) -> PEBBLE via the incidence graph ==")
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnectedGraph(rng, 6, 8, 3)
	r, err := reduction.NewTSPToPebble(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  G: %d vertices, %d edges; B = incidence graph %dx%d with %d edges\n",
		g.N(), g.M(), r.B.NLeft(), r.B.NRight(), r.B.M())

	_, optTour := tsp.Solve(tsp.NewInstance(g))
	optPebble, err := solver.OptimalCost(r.B.Graph())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  OPT tour of G = %d;  π̂(B) = %d;  predicted 2m+J*+1 = %d\n",
		optTour, optPebble, r.PebbleCostFromTourCost(optTour))
	if optPebble == r.PebbleCostFromTourCost(optTour) {
		fmt.Println("  -> solving PEBBLE on B recovers the TSP answer exactly (the NP-hardness transfer)")
	}
}
