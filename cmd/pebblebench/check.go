package main

import (
	"fmt"
	"sync"

	"joinpebble/internal/serve"
)

// checker validates every 200 answer against the paper's bounds. It is
// shared by all workers of a run.
type checker struct {
	// repeat pins the cost of each distinct instance, keyed by workload
	// seed: a repeated instance must always come back at the same cost.
	repeat bool

	mu    sync.Mutex
	costs map[int64]int
}

func newChecker(w *workload) *checker {
	return &checker{repeat: w.distinct > 0, costs: map[int64]int{}}
}

// check returns why resp is not a valid answer to req, or nil.
func (c *checker) check(req *serve.SolveRequest, resp *serve.SolveResponse) error {
	if resp.Family != req.Family {
		return fmt.Errorf("asked for family %s, answered %s", req.Family, resp.Family)
	}
	// Lemma 2.1: m + β₀ ≤ π̂ ≤ 2m.
	if resp.Cost < resp.LowerBound || resp.Cost > resp.UpperBound {
		return fmt.Errorf("cost %d outside Lemma 2.1 bounds [%d, %d]", resp.Cost, resp.LowerBound, resp.UpperBound)
	}
	switch resp.Solver {
	case "equijoin":
		// Thm 3.2: equijoin graphs pebble perfectly, π = m.
		if resp.EffectiveCost != resp.Edges {
			return fmt.Errorf("equijoin solver: effective cost %d, want m = %d (Thm 3.2)", resp.EffectiveCost, resp.Edges)
		}
	case "approx-1.25":
		// Thm 3.1: π ≤ m + ⌊(m−1)/4⌋.
		if limit := resp.Edges + max(0, resp.Edges-1)/4; resp.EffectiveCost > limit {
			return fmt.Errorf("approx-1.25: effective cost %d exceeds m + ⌊(m−1)/4⌋ = %d (Thm 3.1)", resp.EffectiveCost, limit)
		}
	}
	if resp.Degraded {
		n := len(resp.Attempts)
		if n < 2 || resp.Attempts[n-1].Solver != resp.Solver || resp.Attempts[n-1].Err != "" || resp.Attempts[0].Err == "" {
			return fmt.Errorf("degraded answer from %s with inconsistent attempts %+v", resp.Solver, resp.Attempts)
		}
	}
	if !c.repeat {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.costs[req.Seed]; !ok {
		c.costs[req.Seed] = resp.Cost
	} else if prev != resp.Cost {
		return fmt.Errorf("repeated instance (seed %d) answered at cost %d, earlier %d", req.Seed, resp.Cost, prev)
	}
	return nil
}
