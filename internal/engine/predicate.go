package engine

import (
	"fmt"
	"sort"
	"sync"

	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/relation"
)

// Predicate describes one join-predicate family: how to build the join
// graph from a pair of relations and what structure that graph is
// guaranteed to have. The three families the paper studies (§3) register
// themselves here; additional families (string equality, polygon
// overlap, band joins, ...) plug in the same way.
type Predicate interface {
	// Name is the registry key ("equijoin", "containment", "spatial").
	Name() string
	// Kinds returns the attribute domains the family joins over.
	Kinds() (left, right relation.Kind)
	// Build constructs the join graph of the two relations.
	Build(l, r *relation.Relation) (*graph.Bipartite, error)
	// Guarantees names the structural facts every Build result satisfies.
	Guarantees() Guarantees
}

var (
	//joinlint:lockrank engine-registry 40
	registryMu sync.RWMutex
	registry   = map[string]Predicate{}
)

// Register adds a predicate family to the registry. Registering two
// families under one name is a wiring bug, so it panics.
func Register(p Predicate) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[p.Name()]; dup {
		panic(fmt.Sprintf("engine: duplicate predicate family %q", p.Name()))
	}
	registry[p.Name()] = p
}

// Lookup resolves a family by name.
func Lookup(name string) (Predicate, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	p, ok := registry[name]
	return p, ok
}

// Families lists the registered family names, sorted.
func Families() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// The paper's three predicate families (§3.1–§3.3), registered at init.

type equijoinFamily struct{}

func (equijoinFamily) Name() string { return "equijoin" }
func (equijoinFamily) Kinds() (relation.Kind, relation.Kind) {
	return relation.KindInt, relation.KindInt
}
func (equijoinFamily) Build(l, r *relation.Relation) (*graph.Bipartite, error) {
	return join.EquiGraph(l.Ints(), r.Ints()), nil
}
func (equijoinFamily) Guarantees() Guarantees {
	// §3.1 / Theorem 3.2: value groups make every component complete
	// bipartite, so every equijoin instance pebbles perfectly.
	return Guarantees{CompleteBipartite: true}
}

type containmentFamily struct{}

func (containmentFamily) Name() string { return "containment" }
func (containmentFamily) Kinds() (relation.Kind, relation.Kind) {
	return relation.KindSet, relation.KindSet
}
func (containmentFamily) Build(l, r *relation.Relation) (*graph.Bipartite, error) {
	return join.ContainmentGraph(l.Sets(), r.Sets()), nil
}
func (containmentFamily) Guarantees() Guarantees {
	// Lemma 3.3: any bipartite graph arises as a containment join graph.
	return Guarantees{Universal: true}
}

type spatialFamily struct{}

func (spatialFamily) Name() string { return "spatial" }
func (spatialFamily) Kinds() (relation.Kind, relation.Kind) {
	return relation.KindRect, relation.KindRect
}
func (spatialFamily) Build(l, r *relation.Relation) (*graph.Bipartite, error) {
	return join.OverlapGraph(l.Rects(), r.Rects()), nil
}
func (spatialFamily) Guarantees() Guarantees {
	// Lemma 3.4: rectangle overlap realizes the hard family (and any
	// bipartite graph via the construction's generalization).
	return Guarantees{Universal: true}
}

func init() {
	Register(equijoinFamily{})
	Register(containmentFamily{})
	Register(spatialFamily{})
}
