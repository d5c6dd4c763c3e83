package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/relation"
	"joinpebble/internal/solver"
	"joinpebble/internal/workload"
)

func TestFamiliesRegistered(t *testing.T) {
	want := []string{"containment", "equijoin", "spatial"}
	if got := Families(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Families() = %v, want %v", got, want)
	}
	for _, name := range want {
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missing", name)
		}
		if p.Name() != name {
			t.Fatalf("Lookup(%q).Name() = %q", name, p.Name())
		}
	}
}

func TestFromRelationsUnknownFamily(t *testing.T) {
	l := relation.FromInts("R", []int64{1})
	_, err := fromRelations("bogus", l, l)
	if !errors.Is(err, ErrUnknownFamily) {
		t.Fatalf("want ErrUnknownFamily, got %v", err)
	}
	if !strings.Contains(err.Error(), "containment") {
		t.Fatalf("error should list known families: %v", err)
	}
}

func TestNewInstanceKindMismatch(t *testing.T) {
	p, _ := Lookup("containment")
	l := relation.FromInts("R", []int64{1})
	if _, err := NewInstance(p, l, l); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("want ErrKindMismatch, got %v", err)
	}
}

func TestGenerateAttachesGuarantees(t *testing.T) {
	in, err := Generate(workload.Equijoin{LeftSize: 10, RightSize: 10, Domain: 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if in.Family != "equijoin" || !in.Guarantees.CompleteBipartite {
		t.Fatalf("equijoin instance lacks its guarantee: %+v", in)
	}
	in, err = Generate(workload.Spatial{LeftSize: 10, RightSize: 10, Span: 20, MaxExtent: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Guarantees.Universal || in.Guarantees.CompleteBipartite {
		t.Fatalf("spatial guarantees wrong: %+v", in.Guarantees)
	}
}

func TestFromBipartiteLabels(t *testing.T) {
	b := family.Spider(3)
	in := FromBipartite("spider", b)
	if in.Guarantees != (Guarantees{}) {
		t.Fatalf("unregistered label must carry no guarantees: %+v", in.Guarantees)
	}
	in = FromBipartite("equijoin", b)
	if !in.Guarantees.CompleteBipartite {
		t.Fatal("registered label must inherit the family guarantee")
	}
}

func TestPlannerRoutesByGuarantee(t *testing.T) {
	in, err := Generate(workload.Equijoin{LeftSize: 15, RightSize: 15, Domain: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var p Planner
	plan := p.Plan(in)
	if plan.Route != solver.RoutePerfect {
		t.Fatalf("equijoin must route perfect, got %v", plan.Route)
	}
	if !strings.Contains(plan.Reason, "complete-bipartite") {
		t.Fatalf("reason should cite the guarantee: %q", plan.Reason)
	}
}

// TestPlannerRoutesByStructure runs one graph per rung of the routing
// ladder, with no family guarantee to short-circuit the walk: K30×30 is
// an equijoin graph far beyond the exact budget and must pebble
// perfectly (π̂ = m+1); spider-4 fits the exact budget and must reach
// its known optimum; a random 15×15 bipartite graph with 80 edges is
// neither and must fall back to approx-1.25 within Theorem 3.1's bound.
func TestPlannerRoutesByStructure(t *testing.T) {
	k30 := graph.CompleteBipartite(30, 30).Graph()
	spider := family.Spider(4).Graph()
	bip := graph.RandomConnectedBipartite(rand.New(rand.NewSource(10)), 15, 15, 80).Graph()
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		route  solver.Route
		solver string
		cost   int // the π̂ the rung must reach; 0 checks only the bound
	}{
		{"perfect/K30x30", k30, solver.RoutePerfect, "equijoin", k30.M() + 1},
		{"exact/spider-4", spider, solver.RouteExact, "exact", family.SpiderOptimalEffectiveCost(4) + 1},
		{"approx/bip-15x15-m80", bip, solver.RouteApprox, "approx-1.25", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			var p Planner
			res, err := p.Run(context.Background(), FromGraph(c.g))
			if err != nil {
				t.Fatal(err)
			}
			if res.Route != c.route || res.Solver != c.solver || res.Degraded {
				t.Fatalf("route %v via %s (degraded %v), want %v via %s", res.Route, res.Solver, res.Degraded, c.route, c.solver)
			}
			if c.cost != 0 && res.Cost != c.cost {
				t.Fatalf("π̂=%d want %d", res.Cost, c.cost)
			}
			if bound := solver.ApproxCostBound(c.g); res.Cost > bound {
				t.Fatalf("π̂=%d exceeds the Theorem 3.1 bound %d", res.Cost, bound)
			}
			if c.route == solver.RoutePerfect && !res.Perfect {
				t.Fatal("an equijoin graph must pebble perfectly")
			}
		})
	}
}

func TestPlannerOverride(t *testing.T) {
	in := FromBipartite("spider", family.Spider(3))
	p := Planner{Solver: solver.Exact{}}
	plan := p.Plan(in)
	if plan.Solver.Name() != (solver.Exact{}).Name() {
		t.Fatalf("override ignored: %v", plan.Solver.Name())
	}
	if !strings.Contains(plan.Reason, "explicit solver") {
		t.Fatalf("override reason: %q", plan.Reason)
	}
}

func TestPlannerRunVerifiesAndBounds(t *testing.T) {
	in := FromBipartite("spider", family.Spider(3))
	var p Planner
	res, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	// Spider G_3: m = 6, π = 7 (Theorem 4.2's hard family).
	if res.Edges != 6 || res.EffectiveCost != 7 || res.Perfect {
		t.Fatalf("spider result wrong: %+v", res)
	}
	if res.Cost < res.LowerBound || res.Cost > res.UpperBound {
		t.Fatalf("cost %d outside bounds %d..%d", res.Cost, res.LowerBound, res.UpperBound)
	}
}

func TestPlannerRunHonorsCancellation(t *testing.T) {
	in, err := Generate(workload.Spatial{LeftSize: 40, RightSize: 40, Span: 30, MaxExtent: 6}, 11)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var p Planner
	if _, err := p.Run(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestInstanceAuditPairs(t *testing.T) {
	ls := []int64{1, 1, 2}
	rs := []int64{1, 2, 2}
	in, err := fromRelations("equijoin", relation.FromInts("R", ls), relation.FromInts("S", rs))
	if err != nil {
		t.Fatal(err)
	}
	audit, err := in.AuditPairs(join.SortMergeZigzag(ls, rs))
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Perfect {
		t.Fatalf("zigzag sort-merge must be perfect on an equijoin: %+v", audit)
	}
	if _, err := FromGraph(in.Graph()).AuditPairs(nil); err == nil {
		t.Fatal("audit without a join graph must error")
	}
}

// fromRelations is NewInstance with the family resolved by name.
func fromRelations(family string, l, r *relation.Relation) (*Instance, error) {
	p, ok := Lookup(family)
	if !ok {
		return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownFamily, family, Families())
	}
	return NewInstance(p, l, r)
}
