package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"joinpebble/internal/family"
	"joinpebble/internal/solver"
	"joinpebble/internal/workload"
)

// differentialWorkloads is the seeded sweep both differential tests run:
// every predicate family at a few sizes, plus raw-graph instances with no
// guarantees, so each planner rung (perfect, exact, approx) is exercised.
func differentialWorkloads(t *testing.T) map[string]*Instance {
	t.Helper()
	instances := map[string]*Instance{}
	for seed := int64(1); seed <= 4; seed++ {
		for _, w := range []Workload{
			workload.Equijoin{LeftSize: 30, RightSize: 30, Domain: 6, Skew: 0.4},
			workload.Equijoin{LeftSize: 12, RightSize: 18, Domain: 3},
			workload.SetContainment{LeftSize: 15, RightSize: 15, Universe: 40, LeftMax: 2, RightMax: 6, Correlated: true},
			workload.SetContainment{LeftSize: 10, RightSize: 12, Universe: 25, LeftMax: 3, RightMax: 8, Correlated: false},
			workload.Spatial{LeftSize: 20, RightSize: 20, Span: 25, MaxExtent: 6},
			workload.Spatial{LeftSize: 15, RightSize: 15, Span: 12, MaxExtent: 5, Clusters: 3},
		} {
			in, err := Generate(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			instances[fmt.Sprintf("%s/%T/seed%d", in.Family, w, seed)] = in
		}
	}
	for n := 2; n <= 5; n++ {
		instances[fmt.Sprintf("spider/n%d", n)] = FromBipartite("spider", family.Spider(n))
	}
	return instances
}

// TestDifferentialEngineVsDirectSolve pins the engine's core invariant:
// a run returns a scheme and cost byte-identical to solving the graph
// directly with the solver the planner picks, and the planned route is
// the structural one the same graph gets with no family guarantee — a
// guarantee short-circuit may only change *why*.
func TestDifferentialEngineVsDirectSolve(t *testing.T) {
	var p Planner
	for name, in := range differentialWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			res, err := p.Run(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			directScheme, directCost, err := solver.SolveAndVerify(context.Background(), p.Plan(in).Solver, in.Graph())
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != directCost {
				t.Fatalf("engine cost %d != direct cost %d", res.Cost, directCost)
			}
			if !reflect.DeepEqual(res.Scheme, directScheme) {
				t.Fatalf("engine scheme diverges from direct solve:\nengine: %v\ndirect: %v", res.Scheme, directScheme)
			}
			if want := p.Plan(FromGraph(in.Graph())).Route; res.Route != want {
				t.Fatalf("planner route %v, structural route %v", res.Route, want)
			}
		})
	}
}

// TestDifferentialPlannerVsDecideLadder checks the decision side against
// the optimization side: for every instance, Decide must accept the
// effective cost the planner's solve achieved (it is an upper bound on π)
// and, whenever the solve was exact or perfect, reject one less than it.
func TestDifferentialPlannerVsDecideLadder(t *testing.T) {
	var p Planner
	for name, in := range differentialWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			res, err := p.Run(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := solver.Decide(context.Background(), in.Graph(), res.EffectiveCost)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("Decide(π=%d) = false, but the planner produced that cost", res.EffectiveCost)
			}
			if res.Route == solver.RouteApprox {
				return // the 1.25-approximate cost need not be optimal
			}
			ok, err = solver.Decide(context.Background(), in.Graph(), res.EffectiveCost-1)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatalf("Decide(π=%d) = true, but %d is optimal on the %v route",
					res.EffectiveCost-1, res.EffectiveCost, res.Route)
			}
		})
	}
}
