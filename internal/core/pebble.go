// Package core implements the paper's primary contribution: the two-pebble
// game on join graphs (§2) that abstracts join computation independently
// of any particular algorithm.
//
// An instance of a join problem is a graph G; each edge is a joining tuple
// pair that the algorithm must "touch". Two pebbles live on vertices of G.
// When the pebbles sit on the two endpoints of an edge, that edge is
// deleted. A pebbling scheme is a sequence of configurations, consecutive
// ones differing by moving exactly one pebble, that deletes every edge.
// Its cost π̂ is the number of pebble moves: k+1 for k configurations
// (Definition 2.1; the +1 pays for placing the second initial pebble).
// The effective cost is π(P) = π̂(P) − β₀(G) (Definition 2.2), discounting
// the per-component startup.
package core

import (
	"context"
	"fmt"

	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
)

// Pebble-game accounting, flushed once per simulated run (the per-config
// loop stays counter-free): acquisitions are the π̂ moves that put a
// pebble on a vertex — the paper's central cost — and releases are the
// moves that vacated one (every move after the two initial placements).
// The bindings are scope-aware (obs.Scope): callers that thread a scoped
// context through SimulateContext/VerifyContext account the run to their
// request; the plain Simulate/Verify record globally as before.
var (
	cSimulateRuns   = obs.ScopedCounter("core/simulate/runs")
	cSimulateConfig = obs.ScopedCounter("core/simulate/configs")
	cSimulateWasted = obs.ScopedCounter("core/simulate/wasted_configs")
	cEdgesDeleted   = obs.ScopedCounter("core/simulate/edges_deleted")
	cPebbleAcquire  = obs.ScopedCounter("core/pebble/acquisitions")
	cPebbleRelease  = obs.ScopedCounter("core/pebble/releases")
)

// Config is a pebbling configuration: the positions of the two pebbles.
// Pebbles are interchangeable for edge deletion, but a single move changes
// exactly one of the two positions.
type Config struct {
	A, B int
}

// Covers reports whether the configuration's pebbles sit on the endpoints
// of edge e.
func (c Config) Covers(e graph.Edge) bool {
	return (c.A == e.U && c.B == e.V) || (c.A == e.V && c.B == e.U)
}

// MovesFrom returns the number of single-pebble moves needed to reach c
// from prev: 0 if identical, 1 if they share a pebble position, 2
// otherwise. This matches the key observation in Lemma 2.2's proof that
// disjoint configurations are two moves apart.
func (c Config) MovesFrom(prev Config) int {
	switch {
	case c == prev || (c.A == prev.B && c.B == prev.A):
		return 0
	case c.A == prev.A || c.B == prev.B || c.A == prev.B || c.B == prev.A:
		return 1
	default:
		return 2
	}
}

func (c Config) String() string { return fmt.Sprintf("(%d,%d)", c.A, c.B) }

// Scheme is a pebbling scheme: the sequence of configurations
// p_1, ..., p_k of Definition 2.1.
type Scheme []Config

// Cost returns π̂(P) = k+1 for a k-configuration scheme, or 0 for the
// empty scheme (an edgeless graph needs no pebbles).
func (s Scheme) Cost() int {
	if len(s) == 0 {
		return 0
	}
	return len(s) + 1
}

// EffectiveCost returns π(P) = π̂(P) − β₀(G) per Definition 2.2.
func (s Scheme) EffectiveCost(g *graph.Graph) int {
	return s.Cost() - Betti0(g)
}

// Result reports what a scheme did to a graph when simulated.
type Result struct {
	// Deleted[i] is true if edge i of the graph was deleted.
	Deleted []bool
	// DeletedCount is the number of deleted edges.
	DeletedCount int
	// EdgeOrder lists edge indices in deletion order.
	EdgeOrder []int
	// WastedConfigs counts configurations that deleted no edge.
	WastedConfigs int
}

// Complete reports whether every edge was deleted.
func (r *Result) Complete() bool { return r.DeletedCount == len(r.Deleted) }

// Simulate runs the scheme against g and reports which edges it deletes.
// It returns an error if the scheme is structurally invalid: a pebble
// outside the vertex range, or a transition that moves both pebbles (the
// game allows one pebble move at a time).
//
// The inner loop is one EdgeIndex probe per configuration, an
// allocation-free search of a sorted neighbor span.
func Simulate(g *graph.Graph, s Scheme) (*Result, error) {
	return SimulateContext(context.Background(), g, s)
}

// SimulateContext is Simulate with request-scoped accounting: the flush
// lands in the obs.Scope carried by ctx, if any. The simulation itself
// is not interruptible — it is a linear referee pass, fast relative to
// the searches that produce schemes.
func SimulateContext(ctx context.Context, g *graph.Graph, s Scheme) (*Result, error) {
	res := &Result{
		Deleted:   make([]bool, g.M()),
		EdgeOrder: make([]int, 0, g.M()),
	}
	for i, c := range s {
		if c.A < 0 || c.A >= g.N() || c.B < 0 || c.B >= g.N() {
			return nil, fmt.Errorf("core: config %d %v out of vertex range [0,%d)", i, c, g.N())
		}
		if i > 0 {
			if mv := c.MovesFrom(s[i-1]); mv != 1 {
				return nil, fmt.Errorf("core: transition %d: %v -> %v moves %d pebbles, want 1", i, s[i-1], c, mv)
			}
		}
		if idx, ok := g.EdgeIndex(c.A, c.B); ok && !res.Deleted[idx] {
			res.Deleted[idx] = true
			res.DeletedCount++
			res.EdgeOrder = append(res.EdgeOrder, idx)
		} else {
			res.WastedConfigs++
		}
	}
	cSimulateRuns.Inc(ctx)
	cSimulateConfig.Add(ctx, int64(len(s)))
	cSimulateWasted.Add(ctx, int64(res.WastedConfigs))
	cEdgesDeleted.Add(ctx, int64(res.DeletedCount))
	if cost := s.Cost(); cost > 0 {
		cPebbleAcquire.Add(ctx, int64(cost))
		cPebbleRelease.Add(ctx, int64(cost-2))
	}
	return res, nil
}

// Verify checks that s is a valid, complete pebbling scheme for g and
// returns its cost π̂. It is the referee used by tests and benchmarks: a
// solver's claimed cost must match what simulation observes.
func Verify(g *graph.Graph, s Scheme) (int, error) {
	return VerifyContext(context.Background(), g, s)
}

// VerifyContext is Verify with request-scoped accounting (see
// SimulateContext).
func VerifyContext(ctx context.Context, g *graph.Graph, s Scheme) (int, error) {
	res, err := SimulateContext(ctx, g, s)
	if err != nil {
		return 0, err
	}
	if !res.Complete() {
		return 0, fmt.Errorf("core: scheme deletes %d of %d edges", res.DeletedCount, g.M())
	}
	return s.Cost(), nil
}

// Betti0 returns β₀(G) as used by the effective cost: the number of
// connected components containing at least one edge. Definition 2.2's β₀
// is stated for graphs with isolated vertices already removed (§2);
// counting only edge-bearing components keeps π(G) well-defined when
// callers pass graphs that still have singletons.
func Betti0(g *graph.Graph) int {
	b := 0
	for ci := range g.ComponentCount() {
		if _, edges := g.Component(ci); len(edges) > 0 {
			b++
		}
	}
	return b
}
