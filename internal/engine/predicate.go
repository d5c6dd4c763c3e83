package engine

import (
	"sort"

	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/relation"
)

// Predicate describes one join-predicate family: the attribute domains
// it joins, how to build the join graph from a pair of relations, and
// what structure that graph is guaranteed to have.
type Predicate struct {
	// Name is the family's key in the table ("equijoin", "containment",
	// "spatial").
	Name string
	// Left and Right are the attribute domains the family joins over.
	Left, Right relation.Kind
	// Build constructs the join graph of the two relations.
	Build func(l, r *relation.Relation) (*graph.Bipartite, error)
	// Guarantees names the structural facts every Build result satisfies.
	Guarantees Guarantees
}

// predicates is the fixed table of the paper's three predicate families
// (§3.1–§3.3).
var predicates = []Predicate{
	{
		Name: "equijoin", Left: relation.KindInt, Right: relation.KindInt,
		Build: func(l, r *relation.Relation) (*graph.Bipartite, error) {
			return join.EquiGraph(l.Ints(), r.Ints()), nil
		},
		// §3.1 / Theorem 3.2: value groups make every component complete
		// bipartite, so every equijoin instance pebbles perfectly.
		Guarantees: Guarantees{CompleteBipartite: true},
	},
	{
		Name: "containment", Left: relation.KindSet, Right: relation.KindSet,
		Build: func(l, r *relation.Relation) (*graph.Bipartite, error) {
			return join.ContainmentGraph(l.Sets(), r.Sets()), nil
		},
		// Lemma 3.3: any bipartite graph arises as a containment join graph.
		Guarantees: Guarantees{Universal: true},
	},
	{
		Name: "spatial", Left: relation.KindRect, Right: relation.KindRect,
		Build: func(l, r *relation.Relation) (*graph.Bipartite, error) {
			return join.OverlapGraph(l.Rects(), r.Rects()), nil
		},
		// Lemma 3.4: rectangle overlap realizes the hard family (and any
		// bipartite graph via the construction's generalization).
		Guarantees: Guarantees{Universal: true},
	},
}

// Lookup resolves a family by name. The Predicate is a copy of the
// table's entry.
func Lookup(name string) (Predicate, bool) {
	for _, p := range predicates {
		if p.Name == name {
			return p, true
		}
	}
	return Predicate{}, false
}

// Families lists the family names, sorted.
func Families() []string {
	names := make([]string, len(predicates))
	for i, p := range predicates {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}
