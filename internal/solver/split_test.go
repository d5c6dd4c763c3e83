package solver

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"joinpebble/internal/core"
	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/workload"
)

// solveByComponentCopy is how solvePerComponent once solved g, kept as
// the differential oracle of the in-place split: copy each edge-bearing
// component out as a graph of its own, solve it alone, and map its
// scheme back to g's vertex ids. The scheme of the concatenated edge
// order (core.SchemeFromEdgeOrder) starts every component after a jump
// with its first edge's own configuration, so it is each component's
// scheme mapped back, the components joined by the jump's intermediate
// configuration.
func solveByComponentCopy(ctx context.Context, s Solver, g *graph.Graph) (core.Scheme, error) {
	var out core.Scheme
	for _, comp := range g.Components() {
		if len(comp) < 2 {
			continue
		}
		cg, _ := inducedSubgraph(g, comp)
		cs, err := s.Solve(ctx, cg)
		if err != nil {
			return nil, err
		}
		if len(out) > 0 {
			out = append(out, core.Config{A: comp[cs[0].A], B: out[len(out)-1].B})
		}
		for _, c := range cs {
			out = append(out, core.Config{A: comp[c.A], B: comp[c.B]})
		}
	}
	return out, nil
}

// scramble returns g plus isolated extra vertices, its vertex ids
// permuted and its edges shuffled, so that components interleave in
// both vertex and edge ids.
func scramble(rng *rand.Rand, g *graph.Graph, extra int) *graph.Graph {
	n := g.N() + extra
	pi := rng.Perm(n)
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i, e := range edges {
		edges[i] = graph.Edge{U: pi[e.U], V: pi[e.V]}
	}
	return graph.New(n, edges)
}

// TestSolveInPlaceMatchesComponentCopy: on multi-component graphs —
// unions of the standard families, random sparse graphs, and generated
// containment, spatial and equijoin join graphs with their isolated
// tuples — every solver that splits g by component returns exactly the
// scheme of solving each component copied out alone, configuration for
// configuration, and fails exactly when that does, and every
// component's L(C) is graph.LineGraph of the copied component, edge for
// edge. Naive and matching never split g: both visit its edges in
// insertion order.
func TestSolveInPlaceMatchesComponentCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine differential test; the line-graph solvers are too slow under -race, so CI runs it without")
	}
	ctx := context.Background()
	var solvers []Solver
	for _, s := range Named() {
		switch s.(type) {
		case Naive, MatchingSolver:
		default:
			solvers = append(solvers, s)
		}
	}
	accepted := make(map[string]int)
	check := func(t *testing.T, name string, g *graph.Graph) {
		t.Helper()
		if g.ComponentCount() < 2 {
			t.Fatalf("%s is connected", name)
		}
		for _, c := range inPlaceComponents(g) {
			cg, _ := inducedSubgraph(g, c.verts)
			if got, want := g.ComponentLineGraph(c.id), graph.LineGraph(cg); got.N() != want.N() || !slices.Equal(got.Edges(), want.Edges()) {
				t.Fatalf("%s: L(C) of the component of vertex %d differs from the copied component's line graph:\n%v\n%v", name, c.verts[0], got, want)
			}
		}
		for _, s := range solvers {
			want, wantErr := solveByComponentCopy(ctx, s, g)
			got, err := s.Solve(ctx, g)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: %s in place: error %v, component copies: %v", name, s.Name(), err, wantErr)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %s in place differs from component copies:\n%v\n%v", name, s.Name(), got, want)
			}
			if _, err := core.Verify(g, got); err != nil {
				t.Fatalf("%s: %s: %v", name, s.Name(), err)
			}
			if core.Betti0(g) > 1 {
				accepted[s.Name()]++
			}
		}
	}
	rng := rand.New(rand.NewSource(41))
	t.Run("families", func(t *testing.T) {
		for _, a := range family.All() {
			for _, b := range family.All() {
				for size := 1; size <= 6; size++ {
					ga, err := family.Build(a, size)
					if err != nil {
						t.Fatal(err)
					}
					gb, err := family.Build(b, size+1)
					if err != nil {
						t.Fatal(err)
					}
					g := scramble(rng, graph.DisjointUnion(ga.Graph(), gb.Graph()), rng.Intn(4))
					check(t, fmt.Sprintf("%s(%d) ⊔ %s(%d)", a, size, b, size+1), g)
				}
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		for i := 0; i < 200; i++ {
			check(t, fmt.Sprintf("multi#%d", i), scramble(rng, multiComponentGraph(rng, 2+rng.Intn(5)), rng.Intn(6)))
		}
	})
	t.Run("containment", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			w := workload.SetContainment{LeftSize: 16 + int(seed), RightSize: 16 + int(seed), Universe: 64, LeftMax: 3, RightMax: 12, Correlated: true}
			l, r := w.Generate(seed)
			check(t, fmt.Sprintf("containment seed %d", seed), join.ContainmentGraph(l.Sets(), r.Sets()).Graph())
		}
	})
	t.Run("spatial", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			w := workload.Spatial{LeftSize: 16 + int(seed), RightSize: 16 + int(seed), Span: 100, MaxExtent: 8, Clusters: 4 * int(seed%3)}
			l, r := w.Generate(seed)
			check(t, fmt.Sprintf("spatial seed %d", seed), join.OverlapGraph(l.Rects(), r.Rects()).Graph())
		}
	})
	t.Run("equijoin", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			w := workload.Equijoin{LeftSize: 16 + int(seed), RightSize: 16 + int(seed), Domain: 12, Skew: 0.5}
			l, r := w.Generate(seed)
			check(t, fmt.Sprintf("equijoin seed %d", seed), join.EquiGraph(l.Ints(), r.Ints()).Graph())
		}
	})
	for _, s := range solvers {
		if accepted[s.Name()] == 0 {
			t.Errorf("%s accepted no instance with several edge-bearing components", s.Name())
		}
	}
}
