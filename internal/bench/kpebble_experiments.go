package bench

import (
	"context"
	"fmt"
	"math/rand"

	"joinpebble/internal/core"
	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/solver"
)

// E18KPebbles measures the extension the model invites: the same game
// with k pebbles (a k-frame buffer pool in the [6] reading). Headline:
// one extra pebble dissolves the Theorem 3.3 lower bound — G_n costs
// m + 1 moves with three pebbles (one parked on the hub) versus
// 1.25m − 1 with two — so the separation between equijoins and
// spatial/containment joins is specifically a two-pebble phenomenon.
func E18KPebbles() (*Table, error) {
	t := &Table{
		ID:     "E18",
		Title:  "the k-pebble extension",
		Claim:  "G_n needs 1.25m−1 moves with 2 pebbles but only m+1 with 3 (extension of §2's model)",
		Header: []string{"graph", "m", "2-pebble optimum", "3-pebble strategy", "greedy k=2", "greedy k=3", "greedy k=4"},
	}
	for _, n := range []int{4, 8, 16, 32} {
		g := family.Spider(n).Graph()
		m := g.M()
		twoOpt := family.SpiderOptimalEffectiveCost(n) + 1 // π̂

		// Explicit 3-pebble strategy (verified).
		s := &core.KScheme{K: 3}
		s.Moves = append(s.Moves, core.KMove{Pebble: 0, To: 0})
		for i := 0; i < n; i++ {
			s.Moves = append(s.Moves,
				core.KMove{Pebble: 1, To: n + 1 + i},
				core.KMove{Pebble: 2, To: 1 + i})
		}
		threeCost, err := core.VerifyK(g, s)
		if err != nil {
			return nil, err
		}
		row := []any{fmt.Sprintf("spider-%d", n), m, twoOpt, threeCost}
		for _, k := range []int{2, 3, 4} {
			gs, err := core.GreedyK(g, k)
			if err != nil {
				return nil, err
			}
			if _, err := core.VerifyK(g, gs); err != nil {
				return nil, err
			}
			row = append(row, gs.Cost())
		}
		t.AddRow(row...)
	}
	// A random control: extra pebbles help less on graphs without a hub
	// structure to park on.
	rng := rand.New(rand.NewSource(1818))
	g := graph.RandomConnectedBipartite(rng, 6, 6, 20).Graph()
	_, twoOpt, err := solver.SolveAndVerify(context.Background(), solver.Exact{}, g)
	if err != nil {
		return nil, err
	}
	row := []any{"random (6x6, m=20)", g.M(), twoOpt, "n/a"}
	for _, k := range []int{2, 3, 4} {
		gs, err := core.GreedyK(g, k)
		if err != nil {
			return nil, err
		}
		if _, err := core.VerifyK(g, gs); err != nil {
			return nil, err
		}
		row = append(row, gs.Cost())
	}
	t.AddRow(row...)
	t.Notes = append(t.Notes,
		"the 3-pebble spider strategy parks one pebble on the center: m+1 moves, matching what a perfect 2-pebble scheme achieves on easy graphs")
	return t, nil
}
