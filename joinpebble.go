// Package joinpebble is the public facade of the joinpebble library — a
// faithful reproduction of "On the Complexity of Join Predicates"
// (Cai, Chakaravarthy, Kaushik, Naughton; PODS 2001).
//
// The paper models join computation as a two-pebble game on the join
// graph: one vertex per tuple, one edge per joining pair, and a scheme of
// pebble moves that deletes every edge. The library provides:
//
//   - the pebble game itself (configurations, schemes, cost π̂ and
//     effective cost π, a simulator that referees every solver);
//   - join-graph construction for the paper's three predicate classes —
//     equality, set containment, spatial overlap — plus executable join
//     algorithms whose emission orders are scored in the model;
//   - solvers: the linear-time perfect pebbler for equijoin graphs
//     (Theorems 3.2/4.1), the 1.25-approximation of Theorem 3.1, exact
//     solvers via the line-graph TSP(1,2) correspondence of §2.2, and
//     heuristic baselines;
//   - the hard instances (the G_n family of Theorem 3.3, realizable as
//     both set-containment and spatial joins) and the Section 4
//     L-reductions.
//
// Quick start:
//
//	b := joinpebble.EquijoinGraph([]int64{1, 2, 2}, []int64{2, 2, 3})
//	scheme, cost, _ := joinpebble.Pebble(b)
//	fmt.Println(cost, joinpebble.IsPerfect(b, scheme))
//
// The subpackages under internal/ hold the implementation; everything a
// typical caller needs is re-exported here.
package joinpebble

import (
	"context"

	"joinpebble/internal/core"
	"joinpebble/internal/engine"
	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/pages"
	"joinpebble/internal/partition"
	"joinpebble/internal/sets"
	"joinpebble/internal/solver"
	"joinpebble/internal/spatial"
)

// Re-exported core types.
type (
	// Graph is a general undirected graph (vertices 0..N-1).
	Graph = graph.Graph
	// Bipartite is a join graph: left vertices are R tuples, right
	// vertices are S tuples.
	Bipartite = graph.Bipartite
	// Scheme is a pebbling scheme (Definition 2.1).
	Scheme = core.Scheme
	// Config is one pebbling configuration.
	Config = core.Config
	// Solver produces pebbling schemes.
	Solver = solver.Solver
	// Set is a set-valued attribute (§3.2).
	Set = sets.Set
	// Rect is a rectangle attribute (§3.3).
	Rect = spatial.Rect
	// Pair is a join result pair of tuple indices.
	Pair = join.Pair
	// Audit scores a join algorithm's emission order in the model.
	Audit = join.Audit
)

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewBipartite returns an empty join graph with the given side sizes.
func NewBipartite(nLeft, nRight int) *Bipartite { return graph.NewBipartite(nLeft, nRight) }

// EquijoinGraph builds the join graph of an integer equijoin (§3.1).
func EquijoinGraph(ls, rs []int64) *Bipartite { return join.EquiGraph(ls, rs) }

// ContainmentGraph builds the join graph of a set-containment join
// (§3.2): (l, r) joins iff l ⊆ r.
func ContainmentGraph(ls, rs []Set) *Bipartite {
	return join.Graph(ls, rs, join.Contains)
}

// OverlapGraph builds the join graph of a rectangle-overlap join (§3.3).
func OverlapGraph(ls, rs []Rect) *Bipartite {
	return join.Graph(ls, rs, join.Overlaps)
}

// Pebble solves the join graph with the solver the engine planner routes
// it to: the linear-time perfect pebbler on equijoin graphs, exact search
// when the instance is small enough, the Theorem 3.1 approximation
// otherwise. The returned cost is π̂ (Definition 2.1), verified by
// simulation.
func Pebble(b *Bipartite) (Scheme, int, error) {
	g := b.Graph()
	s := (&engine.Planner{}).Plan(engine.FromGraph(g)).Solver
	return solver.SolveAndVerify(context.Background(), s, g)
}

// PebbleWith solves with a specific solver, verifying the scheme.
func PebbleWith(s Solver, b *Bipartite) (Scheme, int, error) {
	return solver.SolveAndVerify(context.Background(), s, b.Graph())
}

// OptimalCost returns π̂(G) exactly; exponential beyond small instances
// (PEBBLE(D) is NP-complete, Theorem 4.2).
func OptimalCost(b *Bipartite) (int, error) { return solver.OptimalCost(b.Graph()) }

// EffectiveCost returns π(P) = π̂(P) − β₀ for a scheme on b.
func EffectiveCost(b *Bipartite, s Scheme) int { return s.EffectiveCost(b.Graph()) }

// IsPerfect reports whether s is a perfect pebbling of b: valid,
// complete, and π = m (Definition 2.3).
func IsPerfect(b *Bipartite, s Scheme) bool { return core.Perfect(b.Graph(), s) }

// Bounds returns Lemma 2.1's universal bounds m+β₀ <= π̂ <= 2m.
func Bounds(b *Bipartite) (lo, hi int) {
	return core.LowerBound(b.Graph()), core.UpperBound(b.Graph())
}

// Solvers returns the named solver lineup: "naive", "greedy",
// "greedy+2opt", "path-cover", "cycle-cover", "approx-1.25", "exact",
// plus "equijoin". Pebble picks among them by the instance's structure.
func Solvers() []Solver {
	return append(solver.All(), solver.Equijoin{})
}

// HardFamily returns G_n of Theorem 3.3 (Figure 1a): the bipartite graph
// whose optimal pebbling needs 1.25m − 1 moves.
func HardFamily(n int) *Bipartite { return family.Spider(n) }

// HardFamilyOptimal returns the exact optimal effective cost π(G_n).
func HardFamilyOptimal(n int) int { return family.SpiderOptimalEffectiveCost(n) }

// AsContainmentJoin realizes any bipartite graph as a set-containment
// instance (Lemma 3.3), returning the two set relations.
func AsContainmentJoin(b *Bipartite) (r, s []Set) {
	inst := sets.RealizeBipartite(b)
	return inst.R, inst.S
}

// AsSpatialJoin realizes the hard family G_n as a rectangle-overlap
// instance (Lemma 3.4).
func AsSpatialJoin(n int) (r, s []Rect) {
	inst := spatial.RealizeSpider(n)
	return inst.R, inst.S
}

// AuditEmission scores the emission order of a join algorithm's result
// pairs against the join graph, per the §2 model.
func AuditEmission(b *Bipartite, pairs []Pair) (*Audit, error) {
	return join.AuditPairs(b, pairs)
}

// Decide answers PEBBLE(D) of Definition 4.1: is π(G) <= K? Fast paths
// use the paper's bounds; the worst case is exponential (Theorem 4.2).
func Decide(b *Bipartite, k int) (bool, error) {
	return solver.Decide(context.Background(), b.Graph(), k)
}

// ApproxWithin solves Definition 4.1's ε-approximation problem: a scheme
// with effective cost within factor 1+ε of optimal, via the §4 solver
// ladder (1.25 in linear time, cycle cover below that, exact for small ε
// — the MAX-SNP barrier of Theorem 4.4 makes that unavoidable).
func ApproxWithin(b *Bipartite, eps float64) (Scheme, error) {
	return solver.ApproxWithin(context.Background(), b.Graph(), eps)
}

// PlanPageFetches schedules the page I/O of a join under a tuple layout
// (the [6] model of §2's related work): it quotients the join graph to
// pages and pebbles it. capacity is tuples per page; the returned
// schedule carries the verified fetch count and its lower bound.
func PlanPageFetches(b *Bipartite, capacity int) (*pages.Schedule, error) {
	layout := pages.Sequential(b.NLeft(), b.NRight(), capacity)
	return pages.Plan(b, layout, nil)
}

// PartitionWork evaluates a tuple-to-partition assignment for the §5
// partitioned-join problem, returning the active sub-join count and the
// total read work against its lower bound.
func PartitionWork(b *Bipartite, a *partition.Assignment) (*partition.Stats, error) {
	return partition.Evaluate(b, a)
}

// NewSet builds a set value.
func NewSet(elems ...uint32) Set { return sets.New(elems...) }

// NewRect builds a rectangle from two corners.
func NewRect(x1, y1, x2, y2 float64) Rect { return spatial.NewRect(x1, y1, x2, y2) }
