// Package join connects the paper's abstract model (§2) to executable
// join processing. It builds join graphs — one left vertex per R-tuple,
// one right vertex per S-tuple, an edge per joining pair — and implements
// real join algorithms for the three predicate classes the paper studies
// (equality, set containment, spatial overlap). Every algorithm emits its
// result pairs in a defined order, and the pebbling instrumentation
// (Cost, Audit) measures that emission order in the pebble game, which is
// exactly how §2 relates algorithms to the model.
package join

import (
	"fmt"

	"joinpebble/internal/core"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
	"joinpebble/internal/sets"
	"joinpebble/internal/spatial"
)

// Per-algorithm work accounting. "Compared" counts the predicate (or
// key/probe) evaluations the algorithm actually performs — the quantity
// the filter-style algorithms exist to shrink — and "emitted" the result
// pairs. Both are accumulated in locals and flushed once per call so the
// inner loops carry no atomic traffic.
type algMetrics struct {
	compared *obs.Counter
	emitted  *obs.Counter
}

// newAlgMetrics takes the two full metric names (always literal
// "join/<algorithm>/tuples_compared" / "join/<algorithm>/pairs_emitted"
// pairs) so every name in the metric surface is a greppable constant —
// the obsnames analyzer validates them at each call site.
func newAlgMetrics(compared, emitted string) algMetrics {
	return algMetrics{
		compared: obs.Default.Counter(compared),
		emitted:  obs.Default.Counter(emitted),
	}
}

func (m algMetrics) flush(compared, emitted int64) {
	m.compared.Add(compared)
	m.emitted.Add(emitted)
}

var (
	mNestedLoop = newAlgMetrics("join/nested_loop/tuples_compared", "join/nested_loop/pairs_emitted")

	// Audit accounting: the emission-order pebbling cost of every audited
	// run lands in one histogram, so a -metrics snapshot carries the π̂
	// distribution of everything an experiment executed. The histogram's
	// sum equals the total of the per-run costs the experiment tables
	// print — the consistency the E15 acceptance check pins.
	cAuditRuns    = obs.Default.Counter("join/audit/runs")
	cAuditPairs   = obs.Default.Counter("join/audit/pairs")
	cAuditJumps   = obs.Default.Counter("join/audit/jumps")
	cAuditPerfect = obs.Default.Counter("join/audit/perfect")
	hAuditCost    = obs.Default.Histogram("join/audit/cost", obs.Pow2Buckets(24))
)

// Pair is a join result: indices into the two input relations.
type Pair struct {
	L, R int
}

// GraphFromPairs builds a join graph directly from result pairs. A
// repeated pair keeps the edge index of its first occurrence.
func GraphFromPairs(nLeft, nRight int, pairs []Pair) *graph.Bipartite {
	edges := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		edges[i] = graph.Edge{U: p.L, V: p.R}
	}
	return graph.NewBipartite(nLeft, nRight, edges)
}

// NestedLoop is the universal baseline: evaluate pred over the cross
// product, emitting pairs in row-major order.
func NestedLoop[L, R any](ls []L, rs []R, pred func(L, R) bool) []Pair {
	var out []Pair
	for i, l := range ls {
		for j, r := range rs {
			if pred(l, r) {
				out = append(out, Pair{L: i, R: j})
			}
		}
	}
	mNestedLoop.flush(int64(len(ls))*int64(len(rs)), int64(len(out)))
	return out
}

// Audit holds the pebbling-model accounting of one algorithm run: how the
// emission order scores in the pebble game of §2.
type Audit struct {
	// Pairs is the number of results (m, the paper's input size).
	Pairs int
	// Cost is π̂ of the emission order: placements + moves + jumps.
	Cost int
	// EffectiveCost is Cost − β₀ of the join graph (Definition 2.2).
	EffectiveCost int
	// Jumps counts emission steps between pairs sharing no tuple.
	Jumps int
	// Perfect reports whether the emission order realizes π = m
	// (Definition 2.3).
	Perfect bool
}

// AuditPairs scores an emission order against its join graph. The pairs
// must be exactly the edge set of b (any order, no duplicates); any other
// list, including a pair outside [0,NLeft)×[0,NRight), is an error.
func AuditPairs(b *graph.Bipartite, pairs []Pair) (*Audit, error) {
	g := b.Graph()
	if len(pairs) != g.M() {
		return nil, fmt.Errorf("join: %d pairs, join graph has %d edges", len(pairs), g.M())
	}
	order := make([]int, len(pairs))
	seen := make([]bool, g.M())
	for k, p := range pairs {
		if p.L < 0 || p.L >= b.NLeft() || p.R < 0 || p.R >= b.NRight() {
			return nil, fmt.Errorf("join: pair %v outside the %dx%d join graph", p, b.NLeft(), b.NRight())
		}
		idx, ok := g.EdgeIndex(b.LeftVertex(p.L), b.RightVertex(p.R))
		if !ok {
			return nil, fmt.Errorf("join: pair %v is not in the join graph", p)
		}
		if seen[idx] {
			return nil, fmt.Errorf("join: pair %v emitted twice", p)
		}
		seen[idx] = true
		order[k] = idx
	}
	cost := core.EdgeOrderCost(g, order)
	jumps := 0
	if len(order) > 0 {
		jumps = cost - 1 - len(order) // π̂ = 1 + m + J
	}
	eff := cost - core.Betti0(g)
	cAuditRuns.Inc()
	cAuditPairs.Add(int64(len(pairs)))
	cAuditJumps.Add(int64(jumps))
	if eff == g.M() {
		cAuditPerfect.Inc()
	}
	hAuditCost.Observe(int64(cost))
	return &Audit{
		Pairs:         len(pairs),
		Cost:          cost,
		EffectiveCost: eff,
		Jumps:         jumps,
		Perfect:       eff == g.M(),
	}, nil
}

// Predicates for the three join classes of §3.

// Contains is the set-containment predicate r.A ⊆ s.B of §3.2.
func Contains(l, r sets.Set) bool { return l.SubsetOf(r) }

// Overlaps is the spatial-overlap predicate of §3.3 on rectangles.
func Overlaps(l, r spatial.Rect) bool { return l.Overlaps(r) }
