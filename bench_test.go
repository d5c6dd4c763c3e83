package joinpebble

// The benchmark harness: one BenchmarkE<n> per experiment in DESIGN.md's
// per-experiment index (the paper's "tables and figures" are its lemmas
// and theorems — see EXPERIMENTS.md), plus micro-benchmarks for the load-
// bearing kernels (line graph construction, the exact search, the solvers, the
// join algorithms). Run with:
//
//	go test -bench=. -benchmem
import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"joinpebble/internal/bench"
	"joinpebble/internal/core"
	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/reduction"
	"joinpebble/internal/sets"
	"joinpebble/internal/solver"
	"joinpebble/internal/spatial"
	"joinpebble/internal/tsp"
	"joinpebble/internal/workload"
)

// benchExperiment runs a registered experiment end to end per iteration.
func benchExperiment(b *testing.B, id string) {
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Bounds(b *testing.B)        { benchExperiment(b, "E1") }
func BenchmarkE2Additivity(b *testing.B)    { benchExperiment(b, "E2") }
func BenchmarkE3Matching(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE4LineGraph(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5Approx125(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkE7HardFamily(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkE8Universality(b *testing.B)  { benchExperiment(b, "E8") }
func BenchmarkE9SpatialFamily(b *testing.B) { benchExperiment(b, "E9") }
func BenchmarkE11Diamond(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12Incidence(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkE13Gadget(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE14Ratio(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15Algorithms(b *testing.B)   { benchExperiment(b, "E15") }
func BenchmarkE16Partition(b *testing.B)    { benchExperiment(b, "E16") }
func BenchmarkE17Pages(b *testing.B)        { benchExperiment(b, "E17") }
func BenchmarkE18KPebbles(b *testing.B)     { benchExperiment(b, "E18") }
func BenchmarkE19Ablation(b *testing.B)     { benchExperiment(b, "E19") }

// BenchmarkE6Equijoin benchmarks the experiment's kernel — the linear-time
// pebbler — across sizes, so the b.N scaling exposes the Theorem 4.1
// claim directly (full-table E6 includes one-off workload generation).
func BenchmarkE6Equijoin(b *testing.B) {
	for _, sz := range []int{100, 1000, 10000} {
		w := workload.Equijoin{LeftSize: sz, RightSize: sz, Domain: int64(sz / 10), Skew: 0}
		l, r := w.Generate(66)
		bg := join.EquiGraph(l.Ints(), r.Ints())
		g, _ := bg.Graph().WithoutIsolated()
		b.Run(fmt.Sprintf("m=%d", g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (solver.Equijoin{}).Solve(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10Hardness benchmarks the exact solver on the hard family at
// growing m; the per-op times grow exponentially (Theorem 4.2's shadow).
func BenchmarkE10Hardness(b *testing.B) {
	for _, n := range []int{5, 7, 9} {
		g := family.Spider(n).Graph()
		b.Run(fmt.Sprintf("exact/m=%d", g.M()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solver.OptimalCost(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, k := range []int{100, 1000} {
		g := graph.CompleteBipartite(k, 20).Graph()
		b.Run(fmt.Sprintf("equijoin/m=%d", g.M()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (solver.Equijoin{}).Solve(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- micro-benchmarks ----

func BenchmarkLineGraph(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnectedBipartite(rng, 50, 50, 600).Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graph.LineGraph(g)
	}
}

func BenchmarkExactTSP(b *testing.B) {
	for _, n := range []int{10, 14, 18} {
		lg := graph.LineGraph(family.Spider(n / 2).Graph())
		in := tsp.NewInstance(lg)
		b.Run(fmt.Sprintf("cities=%d", lg.N()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := tsp.Exact(context.Background(), in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkApprox125(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range []int{50, 200, 800} {
		g := graph.RandomConnectedBipartite(rng, m/5, m/5, m).Graph()
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (solver.Approx125{}).Solve(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimulate(b *testing.B) {
	g := graph.CompleteBipartite(40, 40).Graph()
	scheme, err := (solver.Equijoin{}).Solve(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Simulate(g, scheme); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	w := workload.Equijoin{LeftSize: 5000, RightSize: 5000, Domain: 500, Skew: 0}
	l, r := w.Generate(3)
	ls, rs := l.Ints(), r.Ints()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		join.HashJoin(ls, rs)
	}
}

func BenchmarkSortMergeZigzag(b *testing.B) {
	w := workload.Equijoin{LeftSize: 5000, RightSize: 5000, Domain: 500, Skew: 0}
	l, r := w.Generate(3)
	ls, rs := l.Ints(), r.Ints()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		join.SortMergeZigzag(ls, rs)
	}
}

func BenchmarkContainmentJoins(b *testing.B) {
	w := workload.SetContainment{LeftSize: 400, RightSize: 400, Universe: 2000,
		LeftMax: 3, RightMax: 10, Correlated: true}
	l, r := w.Generate(4)
	ls, rs := l.Sets(), r.Sets()
	b.Run("nested-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.NestedLoop(ls, rs, join.Contains)
		}
	})
	b.Run("signature", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.SignatureNestedLoop(ls, rs)
		}
	})
	b.Run("inverted-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.InvertedIndexJoin(ls, rs)
		}
	})
	b.Run("partitioned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.PartitionedSetJoin(ls, rs, 32)
		}
	})
}

func BenchmarkSpatialJoins(b *testing.B) {
	w := workload.Spatial{LeftSize: 800, RightSize: 800, Span: 300, MaxExtent: 5}
	l, r := w.Generate(5)
	ls, rs := l.Rects(), r.Rects()
	b.Run("nested-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.NestedLoop(ls, rs, join.Overlaps)
		}
	})
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.SweepJoin(ls, rs)
		}
	})
	b.Run("rtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.RTreeJoin(ls, rs)
		}
	})
}

func BenchmarkRTree(b *testing.B) {
	w := workload.Spatial{LeftSize: 5000, RightSize: 1, Span: 500, MaxExtent: 4}
	l, _ := w.Generate(6)
	rects := l.Rects()
	b.Run("build-5000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spatial.BuildRTree(rects)
		}
	})
	t := spatial.BuildRTree(rects)
	query := spatial.NewRect(100, 100, 140, 140)
	b.Run("search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.Search(query)
		}
	})
}

func BenchmarkSubsetOf(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	mk := func(n int) sets.Set {
		es := make([]uint32, n)
		for i := range es {
			es[i] = uint32(rng.Intn(10000))
		}
		return sets.New(es...)
	}
	small, big := mk(8), mk(64)
	full := small.Union(big)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		small.SubsetOf(full)
		small.SubsetOf(big)
	}
}

func BenchmarkGadgetCornerPaths(b *testing.B) {
	g := reduction.NewGadget()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := graph.HamiltonianPathBetween(g, reduction.CornerA, reduction.CornerC); !ok {
			b.Fatal("gadget lost a path")
		}
	}
}
