// Package engine is the unified pipeline from workload to verified
// pebbling scheme: workload → Instance → Planner → solver → audit.
//
// The paper's central point is that one model — the two-pebble game on a
// join graph — covers equality, set-containment and spatial-overlap
// predicates uniformly (§3–§4). The engine is that uniformity as an
// architectural seam: every predicate family is a Predicate registered
// under its name, every concrete input is an Instance (relations plus
// join graph plus the family's structural guarantees), and one Planner
// routes any instance down the solver ladder — the linear-time perfect
// pebbler when components are complete bipartite (Theorems 3.2/4.1),
// exact search under a size budget, the Theorem 3.1 approximation
// otherwise — returning a single verified Result.
//
// The CLIs (pebble, joingen, experiments, bench), the experiment
// registry and the pebbled service (internal/serve) consume this layer
// instead of hand-rolled per-predicate switches. Solves honor
// context.Context cancellation down into the solver's component walk. A
// solve runs on its caller's goroutine; how many run at once is the
// caller's decision (pebbled's admission). Only pebbled solves many
// requests in one process, so only its planners carry a scheme cache
// (Planner.Cache).
package engine

import (
	"errors"
	"fmt"

	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/relation"
)

// ErrUnknownFamily reports a family name with no registered Predicate.
// Match with errors.Is.
var ErrUnknownFamily = errors.New("engine: unknown predicate family")

// ErrKindMismatch reports relations whose attribute domains do not match
// the predicate family they were paired with. Match with errors.Is.
var ErrKindMismatch = errors.New("engine: relation kind mismatch")

// Guarantees names the structural facts a predicate family promises
// about every join graph it can produce. The planner consumes them to
// route without re-deriving structure, and tests assert they hold.
type Guarantees struct {
	// CompleteBipartite: every connected component of the join graph is
	// complete bipartite — the defining structure of equijoin graphs
	// (§3.1: all R-tuples with value v join all S-tuples with value v).
	// Implies the linear-time perfect pebbler applies and π = m.
	CompleteBipartite bool
	// Universal: the family can realize *any* bipartite graph as a join
	// graph (set containment by Lemma 3.3, spatial overlap by Lemma 3.4),
	// so its instances inherit the full hardness of PEBBLE.
	Universal bool
}

// Instance is one concrete join problem: the relations (when the
// instance came from data rather than a raw graph), the join graph, and
// the structural guarantees inherited from its family.
type Instance struct {
	// Family is the registered predicate family name, or a free-form
	// label ("graph", "spider") for instances ingested as raw graphs.
	Family string
	// Left and Right are the input relations; nil when the instance was
	// ingested directly as a graph.
	Left, Right *relation.Relation
	// Bip is the join graph; nil only for FromGraph instances.
	Bip *graph.Bipartite
	// Guarantees are the family's structural promises (zero value for
	// raw-graph instances: nothing is promised, the planner inspects).
	Guarantees Guarantees

	g *graph.Graph // cached underlying graph
}

// NewInstance builds an instance from two relations under a predicate
// family: it checks the attribute domains, builds the join graph through
// the family's builder, and attaches the family guarantees.
func NewInstance(p Predicate, l, r *relation.Relation) (*Instance, error) {
	lk, rk := p.Kinds()
	if l.Kind != lk || r.Kind != rk {
		return nil, fmt.Errorf("%w: family %s wants %v⋈%v, got %v⋈%v",
			ErrKindMismatch, p.Name(), lk, rk, l.Kind, r.Kind)
	}
	b, err := p.Build(l, r)
	if err != nil {
		return nil, fmt.Errorf("engine: build %s join graph: %w", p.Name(), err)
	}
	return &Instance{
		Family:     p.Name(),
		Left:       l,
		Right:      r,
		Bip:        b,
		Guarantees: p.Guarantees(),
	}, nil
}

// FromBipartite ingests an existing join graph under a family label. If
// the label names a registered family the family's guarantees are
// attached (the caller asserts the graph really came from that family —
// differential tests keep that honest); otherwise no guarantees are
// assumed and the planner falls back to structural inspection.
func FromBipartite(family string, b *graph.Bipartite) *Instance {
	in := &Instance{Family: family, Bip: b}
	if p, ok := Lookup(family); ok {
		in.Guarantees = p.Guarantees()
	}
	return in
}

// FromGraph ingests a general graph (the cmd/pebble "graph n" format).
// No bipartite structure or guarantees are assumed.
func FromGraph(g *graph.Graph) *Instance {
	return &Instance{Family: "graph", g: g}
}

// Graph returns the underlying graph the solvers run on, building and
// caching it on first use.
func (in *Instance) Graph() *graph.Graph {
	if in.g == nil {
		in.g = in.Bip.Graph()
	}
	return in.g
}

// AuditPairs scores a join algorithm's emission order against this
// instance's join graph in the pebble game of §2 — the audit stage of
// the pipeline. The instance must carry a join graph.
func (in *Instance) AuditPairs(pairs []join.Pair) (*join.Audit, error) {
	if in.Bip == nil {
		return nil, fmt.Errorf("engine: instance %q has no join graph to audit against", in.Family)
	}
	return join.AuditPairs(in.Bip, pairs)
}

// Workload generates relation pairs for a predicate family — the
// entry stage of the pipeline. The internal/workload generators satisfy
// it; anything else (a daemon's request decoder, a fuzzer) can too.
type Workload interface {
	// Family names the predicate family the generated relations join
	// under; it must be registered.
	Family() string
	// Generate builds the two relations deterministically from seed.
	Generate(seed int64) (l, r *relation.Relation)
}

// Generate runs a workload and wraps the result in an Instance of the
// workload's family.
func Generate(w Workload, seed int64) (*Instance, error) {
	p, ok := Lookup(w.Family())
	if !ok {
		return nil, fmt.Errorf("%w: workload family %q (known: %v)", ErrUnknownFamily, w.Family(), Families())
	}
	l, r := w.Generate(seed)
	return NewInstance(p, l, r)
}
