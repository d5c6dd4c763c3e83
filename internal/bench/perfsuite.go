package bench

// PerfSuite pins the hot-path benchmarks that cmd/bench measures and
// regression-checks: the CSR code paths (span lookups, multi-component
// solving, the linear approximation and equijoin solves, the equijoin,
// containment and spatial join-graph builds, the exact search). The
// committed BENCH_*-legacy.json reports measured the pre-optimization
// paths under the same series names; they stay as history.
//
// Workloads are deterministic (fixed seeds, fixed families) so ns/op is
// the only thing that varies between runs.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"joinpebble/internal/core"
	"joinpebble/internal/engine"
	"joinpebble/internal/family"
	"joinpebble/internal/faultinject"
	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/obs"
	"joinpebble/internal/schemecache"
	"joinpebble/internal/solver"
	"joinpebble/internal/tsp"
	"joinpebble/internal/workload"
)

// PerfCase is one pinned benchmark.
type PerfCase struct {
	// Name is the stable series identifier, "<operation>/<workload>".
	Name string
	// Run is the benchmark body.
	Run func(b *testing.B)
	// Extra holds workload-derived scalars recorded alongside the timing
	// (solver cost ratios etc.); computed once at suite construction,
	// except a scaling series' fitted slope, which its largest case adds
	// once the series has run.
	Extra map[string]float64
}

// seed for the random workloads. Changing it invalidates comparisons
// against existing BENCH_*.json files, so don't.
const perfSeed = 7

// SiteBenchDisarmed is the never-armed fault site the
// faultinject/disarmed-fire series measures (DESIGN.md site registry).
const SiteBenchDisarmed = "bench/disarmed-site"

func perfBipartite(nl, nr, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(perfSeed))
	return graph.RandomConnectedBipartite(rng, nl, nr, m).Graph()
}

// multiComponent returns k disjoint copies of a random connected graph
// with n vertices and m edges each.
func multiComponent(k, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(perfSeed))
	out := graph.New(0, nil)
	for i := 0; i < k; i++ {
		out = graph.DisjointUnion(out, graph.RandomConnectedGraph(rng, n, m, 0))
	}
	return out
}

// costRatio runs s once on g and returns π̂/m — recorded as a series Extra
// so the perf arms are provably solving equally well, not just fast.
func costRatio(s solver.Solver, g *graph.Graph) float64 {
	_, cost, err := solver.SolveAndVerify(context.Background(), s, g.Clone())
	if err != nil {
		panic("bench: perf workload solver failed: " + err.Error())
	}
	return float64(cost) / float64(g.M())
}

// PerfSuite returns the pinned benchmark cases.
func PerfSuite() []PerfCase {
	spider := family.Spider(1000).Graph() // m = 2000
	bip := perfBipartite(60, 40, 2400)    // dense bipartite, m = 2400
	wide := perfBipartite(100, 100, 3000) // sparser bipartite, m = 3000
	multi := multiComponent(8, 120, 300)  // 8 components, m = 2400 total
	equi := func() *graph.Graph {         // 12 complete-bipartite islands, m = 4800
		out := graph.New(0, nil)
		for i := 0; i < 12; i++ {
			out = graph.DisjointUnion(out, graph.CompleteBipartite(10, 40).Graph())
		}
		return out
	}()
	ctx := context.Background()

	ratioSpider := costRatio(solver.Approx125{}, spider)
	ratioBip := costRatio(solver.Approx125{}, bip)
	ratioEqui := costRatio(solver.Equijoin{}, equi)

	// A long valid scheme for the simulate workload.
	simScheme, _, err := solver.SolveAndVerify(ctx, solver.Naive{}, bip.Clone())
	if err != nil {
		panic("bench: naive scheme failed: " + err.Error())
	}

	cases := []PerfCase{
		{
			Name: "linegraph/spider-1000-m2000",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					graph.LineGraph(spider.Clone())
				}
			},
		},
		{
			Name: "linegraph/bip-60x40-m2400",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					graph.LineGraph(bip.Clone())
				}
			},
		},
		{
			Name:  "approx125/spider-1000-m2000",
			Extra: map[string]float64{"cost_ratio": ratioSpider},
			Run: func(b *testing.B) {
				s := solver.Approx125{}
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(ctx, spider.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "approx125/bip-60x40-m2400",
			Extra: map[string]float64{"cost_ratio": ratioBip},
			Run: func(b *testing.B) {
				s := solver.Approx125{}
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(ctx, bip.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "solve-multicomponent/approx125-8x300",
			Extra: map[string]float64{"components": 8},
			Run: func(b *testing.B) {
				s := solver.Approx125{}
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(ctx, multi.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "equijoin/islands-12xK10-40-m4800",
			Extra: map[string]float64{"cost_ratio": ratioEqui},
			Run: func(b *testing.B) {
				s := solver.Equijoin{}
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(ctx, equi.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name: "simulate/bip-60x40-m2400",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := core.Simulate(bip, simScheme)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Complete() {
						b.Fatal("scheme must delete every edge")
					}
				}
			},
		},
		{
			// The disarmed fault-injection fast path: one atomic load, no
			// branches taken. This series pins the claim that shipping the
			// sites in hot loops (exact-search checkpoints, component solves)
			// is free when nothing is armed; the solver series above prove
			// it end to end against the pre-injection baseline.
			Name: "faultinject/disarmed-fire",
			Run: func(b *testing.B) {
				faultinject.Reset()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := faultinject.Fire(SiteBenchDisarmed); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name: "canon-fingerprint/spider-1000-m2000",
			Run: func(b *testing.B) {
				sc := graph.NewCanonScratch()
				g := spider.Clone()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					graph.Canonicalize(g, sc)
				}
			},
		},
		{
			Name: "canon-fingerprint/bip-60x40-m2400",
			Run: func(b *testing.B) {
				sc := graph.NewCanonScratch()
				g := bip.Clone()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					graph.Canonicalize(g, sc)
				}
			},
		},
		{
			// Warm-cache planner run on the spider workload: fingerprint,
			// shard lookup, translate, re-verify. Compare against the cold
			// approx125/spider-1000-m2000 series above — the gap is the
			// latency the scheme cache buys on repeated instances.
			Name: "schemecache/hit",
			Run: func(b *testing.B) {
				p := engine.Planner{Cache: schemecache.New(1<<26, 0)}
				in := engine.FromBipartite("spider", family.Spider(1000))
				if _, err := p.Run(ctx, in); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := p.Run(ctx, in)
					if err != nil {
						b.Fatal(err)
					}
					if res.Solver != engine.CachedSolverName {
						b.Fatal("warm run missed the cache")
					}
				}
			},
		},
		{
			// Cold cache-on planner run: miss, full solve, canonical insert.
			// Against approx125/spider-1000-m2000 this prices the cache's
			// overhead on a solve that gains nothing from it.
			Name: "schemecache/miss",
			Run: func(b *testing.B) {
				in := engine.FromBipartite("spider", family.Spider(1000))
				var p engine.Planner
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Cache = schemecache.New(1<<26, 0)
					res, err := p.Run(ctx, in)
					if err != nil {
						b.Fatal(err)
					}
					if res.Solver == engine.CachedSolverName {
						b.Fatal("cold run cannot hit")
					}
				}
			},
		},
		{
			Name: "hasedge/bip-100x100-m3000",
			Run: func(b *testing.B) {
				n := wide.N()
				hits := 0
				for i := 0; i < b.N; i++ {
					if wide.HasEdge(i%n, (i*31+7)%n) {
						hits++
					}
				}
				_ = hits
			},
		},
	}
	cases = append(cases, spiderScaling()...)
	cases = append(cases, randomScaling()...)
	cases = append(cases, equijoinScaling()...)
	cases = append(cases, indexJoinScaling()...)
	return append(cases, exactSeries()...)
}

// exactSeries times the exact TSP(1,2) search behind Proposition 2.2's
// optimal pebbling on the line graphs of the spiders with m = 16..22
// edges, up to tsp.MaxExactCities, the exact rung's default limit. Its
// time and memory double with every edge, so B/op matters as much as
// ns/op here.
func exactSeries() []PerfCase {
	var cases []PerfCase
	ctx := context.Background()
	for _, m := range []int{16, 18, 20, 22} {
		in := tsp.NewInstance(graph.LineGraph(family.Spider(m / 2).Graph()))
		cases = append(cases, PerfCase{
			Name: fmt.Sprintf("tsp/exact-m%d", m),
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := tsp.Exact(ctx, in); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
	}
	return cases
}

// spiderScaling is the Theorem 3.1 linear-time series: approx-1.25 on
// spiders with m = 500..8000 edges. The m8000 case records the fitted
// log-log slope (see recordScaling): near 1 for a linear solve, near 3
// for a per-strip walk over the line graph, whose hub clique has m²/8
// edges. The rung never materializes the line graph, which for the
// m8000 spider would hold 8M edges.
func spiderScaling() []PerfCase {
	sizes := []int{500, 1000, 2000, 4000, 8000}
	nsPerOp := make([]float64, len(sizes))
	cases := make([]PerfCase, len(sizes))
	ctx := context.Background()
	for i, m := range sizes {
		g := family.Spider(m / 2).Graph()
		s := solver.Approx125{}
		extra := map[string]float64{"cost_ratio": costRatio(s, g)}
		cases[i] = PerfCase{
			Name:  fmt.Sprintf("approx125/spider-m%d", m),
			Extra: extra,
			Run: func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					if _, err := s.Solve(ctx, g.Clone()); err != nil {
						b.Fatal(err)
					}
				}
				recordScaling(b, extra, sizes, nsPerOp, i)
			},
		}
	}
	return cases
}

// randomScaling is approx-1.25 on random connected graphs with n = 2m/5
// vertices and m = 500..8000 edges. The walk is certified on every
// spider, so spiderScaling times the walk alone; on these graphs it is
// not, so the rung also runs Theorem 3.1's construction, and this series
// keeps the construction's linear time in view. Each case records the
// solver/walk/certified count of one scoped solve ("certified"), and the
// m8000 case the fitted log-log slope.
func randomScaling() []PerfCase {
	sizes := []int{500, 1000, 2000, 4000, 8000}
	nsPerOp := make([]float64, len(sizes))
	cases := make([]PerfCase, len(sizes))
	ctx := context.Background()
	for i, m := range sizes {
		g := graph.RandomConnectedGraph(rand.New(rand.NewSource(perfSeed)), 2*m/5, m, 0)
		s := solver.Approx125{}
		extra := map[string]float64{"certified": certifiedWalks(s, g)}
		cases[i] = PerfCase{
			Name:  fmt.Sprintf("approx125/random-m%d", m),
			Extra: extra,
			Run: func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					if _, err := s.Solve(ctx, g.Clone()); err != nil {
						b.Fatal(err)
					}
				}
				recordScaling(b, extra, sizes, nsPerOp, i)
			},
		}
	}
	return cases
}

// certifiedWalks runs s once on g under a request scope and returns the
// scope's solver/walk/certified count: the components whose walk met
// its lower bound, so that no construction ran for them.
func certifiedWalks(s solver.Solver, g *graph.Graph) float64 {
	sc := obs.NewScope("bench/certified")
	defer sc.Close()
	if _, err := s.Solve(obs.WithScope(context.Background(), sc), g.Clone()); err != nil {
		panic("bench: " + s.Name() + " failed: " + err.Error())
	}
	return float64(sc.Snapshot().Counters["solver/walk/certified"])
}

// equijoinScaling is the Theorem 3.2 linear-time trio of series on
// zipf-1.2 equijoins of n×n tuples over n values, m from about 4k to 64k
// edges: join.EquiGraph, solver.Equijoin and graph.Canonicalize (the
// fingerprint every request computes before the cache lookup), each
// fitting its slope. Every solve and canon case records "verify_ratio",
// its ns/op over that of core.Verify on the same graph and scheme, timed
// right after it.
func equijoinScaling() []PerfCase {
	sides := []int{200, 290, 424, 620, 920}
	ms := make([]int, len(sides))
	buildNs, solveNs, canonNs := make([]float64, len(sides)), make([]float64, len(sides)), make([]float64, len(sides))
	var builds, solves, canons []PerfCase
	ctx := context.Background()
	for i, n := range sides {
		l, r := workload.Equijoin{LeftSize: n, RightSize: n, Domain: int64(n), Skew: 1.2}.Generate(perfSeed)
		ls, rs := l.Ints(), r.Ints()
		g := join.EquiGraph(ls, rs).Graph()
		ms[i] = g.M()
		scheme, _, err := solver.SolveAndVerify(ctx, solver.Equijoin{}, g)
		if err != nil {
			panic("bench: perf workload solver failed: " + err.Error())
		}
		build := PerfCase{Name: fmt.Sprintf("build/equijoin-m%d", g.M()), Extra: map[string]float64{}}
		build.Run = func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				join.EquiGraph(ls, rs)
			}
			recordScaling(b, build.Extra, ms, buildNs, i)
		}
		solve := PerfCase{Name: fmt.Sprintf("solve/equijoin-m%d", g.M()), Extra: map[string]float64{}}
		solve.Run = func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				if _, err := (solver.Equijoin{}).Solve(ctx, g); err != nil {
					b.Fatal(err)
				}
			}
			recordScaling(b, solve.Extra, ms, solveNs, i)
			solve.Extra["verify_ratio"] = solveNs[i] / verifyNs(b, g, scheme)
		}
		canon := canonCase(fmt.Sprintf("canon/equijoin-m%d", g.M()), g, scheme, ms, canonNs, i)
		builds, solves, canons = append(builds, build), append(solves, solve), append(canons, canon)
	}
	return slices.Concat(builds, solves, canons)
}

// canonCase is case i of a graph.Canonicalize scaling series over xs:
// it fingerprints g with a warmed scratch, records its ns/op in ns (and
// the series slope, when last), and records "verify_ratio", its ns/op
// over that of core.Verify on g and scheme, timed right after it.
func canonCase(name string, g *graph.Graph, scheme core.Scheme, xs []int, ns []float64, i int) PerfCase {
	canon := PerfCase{Name: name, Extra: map[string]float64{}}
	canon.Run = func(b *testing.B) {
		sc := graph.NewCanonScratch()
		graph.Canonicalize(g, sc)
		b.ResetTimer()
		for j := 0; j < b.N; j++ {
			graph.Canonicalize(g, sc)
		}
		recordScaling(b, canon.Extra, xs, ns, i)
		canon.Extra["verify_ratio"] = ns[i] / verifyNs(b, g, scheme)
	}
	return canon
}

// indexJoinScaling is the containment and spatial join-graph builds,
// join.ContainmentGraph and join.OverlapGraph, on n×n relations with n
// from 250 to 4000, then graph.Canonicalize on the graphs they build.
// The universe and the span grow with n, so a left tuple keeps about as
// many matches and the output grows linearly: the fitted slope against
// n reads near 1 for an output-sensitive build and near 2 for a
// cross-product one. Each build case records its edge count and
// "nested_ratio", its ns/op over that of the nested-loop build of the
// same relations (join.GraphFromPairs over join.NestedLoop), timed right
// after it; each canon case records "verify_ratio" against the
// approx-1.25 scheme of its graph. These sparse graphs have many
// distinct colors, so the canon series weigh color re-ranking where the
// equijoin series weigh the canonical order.
func indexJoinScaling() []PerfCase {
	sizes := []int{250, 500, 1000, 2000, 4000}
	containNs, overlapNs := make([]float64, len(sizes)), make([]float64, len(sizes))
	canonContainNs, canonOverlapNs := make([]float64, len(sizes)), make([]float64, len(sizes))
	var contains, overlaps, canonContains, canonOverlaps []PerfCase
	for i, n := range sizes {
		l, r := workload.SetContainment{LeftSize: n, RightSize: n, Universe: n / 2,
			LeftMax: 3, RightMax: 12, Correlated: true}.Generate(perfSeed)
		ls, rs := l.Sets(), r.Sets()
		g := join.ContainmentGraph(ls, rs).Graph()
		contain := PerfCase{Name: fmt.Sprintf("build/containment-n%d", n),
			Extra: map[string]float64{"edges": float64(g.M())}}
		contain.Run = func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				join.ContainmentGraph(ls, rs)
			}
			recordScaling(b, contain.Extra, sizes, containNs, i)
			contain.Extra["nested_ratio"] = containNs[i] / nestedNs(b, func() {
				join.GraphFromPairs(n, n, join.NestedLoop(ls, rs, join.Contains))
			})
		}
		canonContains = append(canonContains, canonCase(fmt.Sprintf("canon/containment-n%d", n),
			g, approxScheme(g), sizes, canonContainNs, i))
		l, r = workload.Spatial{LeftSize: n, RightSize: n, Span: 4 * math.Sqrt(float64(n)),
			MaxExtent: 8}.Generate(perfSeed)
		lr, rr := l.Rects(), r.Rects()
		g = join.OverlapGraph(lr, rr).Graph()
		overlap := PerfCase{Name: fmt.Sprintf("build/spatial-n%d", n),
			Extra: map[string]float64{"edges": float64(g.M())}}
		overlap.Run = func(b *testing.B) {
			for j := 0; j < b.N; j++ {
				join.OverlapGraph(lr, rr)
			}
			recordScaling(b, overlap.Extra, sizes, overlapNs, i)
			overlap.Extra["nested_ratio"] = overlapNs[i] / nestedNs(b, func() {
				join.GraphFromPairs(n, n, join.NestedLoop(lr, rr, join.Overlaps))
			})
		}
		canonOverlaps = append(canonOverlaps, canonCase(fmt.Sprintf("canon/spatial-n%d", n),
			g, approxScheme(g), sizes, canonOverlapNs, i))
		contains, overlaps = append(contains, contain), append(overlaps, overlap)
	}
	return slices.Concat(contains, overlaps, canonContains, canonOverlaps)
}

// approxScheme returns approx-1.25's verified scheme for g.
func approxScheme(g *graph.Graph) core.Scheme {
	scheme, _, err := solver.SolveAndVerify(context.Background(), solver.Approx125{}, g)
	if err != nil {
		panic("bench: perf workload solver failed: " + err.Error())
	}
	return scheme
}

// nestedNs stops b's timer and returns the ns/op of build over as many
// calls, at least one, as fit in the time b's loop took: the quadratic
// build would take minutes over b.N calls.
func nestedNs(b *testing.B, build func()) float64 {
	b.StopTimer()
	budget := b.Elapsed()
	start := obs.Now()
	calls := 0
	for calls == 0 || obs.Since(start) < budget {
		build()
		calls++
	}
	return float64(obs.Since(start).Nanoseconds()) / float64(calls)
}

// verifyNs stops b's timer and returns the ns/op of core.Verify on g
// and scheme over b.N calls.
func verifyNs(b *testing.B, g *graph.Graph, scheme core.Scheme) float64 {
	b.StopTimer()
	start := obs.Now()
	for j := 0; j < b.N; j++ {
		if _, err := core.Verify(g, scheme); err != nil {
			b.Fatal(err)
		}
	}
	return float64(obs.Since(start).Nanoseconds()) / float64(b.N)
}

// recordScaling stores case i's ns/op in ns. The last case of a series,
// which runs last, then records the least-squares log-log slope of ns/op
// against xs over the whole series as its "slope" Extra.
func recordScaling(b *testing.B, extra map[string]float64, xs []int, ns []float64, i int) {
	ns[i] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if i == len(xs)-1 && !slices.Contains(ns, 0) {
		extra["slope"] = logLogSlope(xs, ns)
	}
}

// logLogSlope is the least-squares slope of log(y) against log(x).
func logLogSlope(x []int, y []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range x {
		lx, ly := math.Log(float64(x[i])), math.Log(y[i])
		sx, sy, sxx, sxy = sx+lx, sy+ly, sxx+lx*lx, sxy+lx*ly
	}
	n := float64(len(x))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
