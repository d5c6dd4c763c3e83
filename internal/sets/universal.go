package sets

import "joinpebble/internal/graph"

// ContainmentInstance is an instance of the set-containment join problem:
// pairs (r, s) with r ∈ R, s ∈ S join iff r ⊆ s.
type ContainmentInstance struct {
	R []Set
	S []Set
}

// RealizeBipartite implements Lemma 3.3's universality construction:
// given any bipartite graph G = (R, S, E), it builds a set-containment
// instance whose join graph is exactly G. Tuple r_i is the singleton {i}
// and tuple s_j is { i : (r_i, s_j) ∈ E }, so r_i ⊆ s_j iff the edge
// exists. The realization is exact: r_i is never empty (it is always the
// singleton {i}), so even isolated vertices round-trip correctly.
func RealizeBipartite(b *graph.Bipartite) *ContainmentInstance {
	inst := &ContainmentInstance{
		R: make([]Set, b.NLeft()),
		S: make([]Set, b.NRight()),
	}
	for i := 0; i < b.NLeft(); i++ {
		inst.R[i] = New(uint32(i))
	}
	adj := make([][]uint32, b.NRight())
	for e := 0; e < b.M(); e++ {
		l, r := b.EdgeAt(e)
		adj[r] = append(adj[r], uint32(l))
	}
	for j := 0; j < b.NRight(); j++ {
		inst.S[j] = New(adj[j]...)
	}
	return inst
}

// JoinGraph evaluates the containment predicate over all pairs and
// returns the resulting join graph (§2's model). Quadratic by design: it
// is the reference the join algorithms and the universality round-trip
// tests compare against.
func (inst *ContainmentInstance) JoinGraph() *graph.Bipartite {
	var edges []graph.Edge
	for i, r := range inst.R {
		for j, s := range inst.S {
			if r.SubsetOf(s) {
				edges = append(edges, graph.Edge{U: i, V: j})
			}
		}
	}
	return graph.NewBipartite(len(inst.R), len(inst.S), edges)
}
