package bench

// PerfSuite pins the hot-path benchmarks that cmd/bench measures and
// regression-checks. Every case exists in two arms selected by the legacy
// flag: the "new" arm exercises the compact-index code paths (frozen CSR
// lookups, implicit line-graph views, parallel component solving) and the
// "legacy" arm the pre-optimization ones (map lookups, materialized
// map-backed line graphs, sequential solving). Series names are identical
// across arms so a legacy BENCH_*-legacy.json diffs cleanly against a
// current one — that pair is the before/after evidence for the rewrite.
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
	"joinpebble/internal/schemecache"
	"joinpebble/internal/solver"
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
	out := graph.New(0)
	for i := 0; i < k; i++ {
		out = graph.DisjointUnion(out, graph.RandomConnectedGraph(rng, n, m, 0))
	}
	return out
}

// solveArm configures the solver arm: sequential + materialized line
// graphs for legacy, parallel + implicit views otherwise. It returns a
// restore func for the package-level Parallelism knob.
func solveArm(legacy bool) (solver.Approx125, func()) {
	prev := solver.Parallelism
	if legacy {
		solver.Parallelism = 1
	} else {
		solver.Parallelism = 0
	}
	return solver.Approx125{Materialize: legacy}, func() { solver.Parallelism = prev }
}

// costRatio runs s once on g and returns π̂/m — recorded as a series Extra
// so the perf arms are provably solving equally well, not just fast.
func costRatio(s solver.Solver, g *graph.Graph) float64 {
	_, cost, err := solver.SolveAndVerify(s, g.Clone())
	if err != nil {
		panic("bench: perf workload solver failed: " + err.Error())
	}
	return float64(cost) / float64(g.M())
}

// SmokeSuite returns reduced-size kernel benchmarks for CI smoke runs:
// the bitset claw scan (sequential and parallel) and the arena-backed
// approx-1.25 at a fraction of the pinned workload sizes. Series names
// carry a smoke- prefix so they never match — and never stand in for —
// the pinned regression series; the point is catching kernel rot
// (panics, wrong answers, fallback misfires) in seconds, not timing.
func SmokeSuite() []PerfCase {
	spider := family.Spider(200).Graph()  // m = 400
	spiderP := family.Spider(300).Graph() // m = 600: line graph n >= parallel floor
	return []PerfCase{
		{
			Name: "smoke-clawfree-linegraph/spider-200-m400",
			Run: func(b *testing.B) {
				scratch := graph.NewClawScratch()
				for i := 0; i < b.N; i++ {
					if !graph.ClawFreeLineGraphScratch(spider.Clone(), scratch) {
						b.Fatal("spider line graph must be claw-free")
					}
				}
			},
		},
		{
			Name: "smoke-clawfree-parallel/spider-300-m600",
			Run: func(b *testing.B) {
				prev := solver.Parallelism
				solver.Parallelism = 4 // engage the parallel claw scan
				defer func() { solver.Parallelism = prev }()
				scratch := graph.NewClawScratch()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !graph.ClawFreeLineGraphScratch(spiderP.Clone(), scratch) {
						b.Fatal("spider line graph must be claw-free")
					}
				}
			},
		},
		{
			Name: "smoke-canon-fingerprint/spider-200-m400",
			Run: func(b *testing.B) {
				sc := graph.NewCanonScratch()
				for i := 0; i < b.N; i++ {
					graph.Canonicalize(spider.Clone(), sc)
				}
			},
		},
		{
			Name: "smoke-schemecache/hit-spider-200",
			Run: func(b *testing.B) {
				p := engine.Planner{Cache: schemecache.New(1<<24, 0)}
				in := engine.FromBipartite("spider", family.Spider(200))
				ctx := context.Background()
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
			Name: "smoke-approx125/spider-200-m400",
			Run: func(b *testing.B) {
				s, restore := solveArm(false)
				defer restore()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(spider.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	}
}

// PerfSuite returns the pinned benchmark cases for one arm.
func PerfSuite(legacy bool) []PerfCase {
	spider := family.Spider(1000).Graph() // m = 2000, claw-free line graph
	bip := perfBipartite(60, 40, 2400)    // dense bipartite, m = 2400
	wide := perfBipartite(100, 100, 3000) // sparser bipartite, m = 3000
	multi := multiComponent(8, 120, 300)  // 8 components, m = 2400 total
	equi := func() *graph.Graph {         // 12 complete-bipartite islands, m = 4800
		out := graph.New(0)
		for i := 0; i < 12; i++ {
			out = graph.DisjointUnion(out, graph.CompleteBipartite(10, 40).Graph())
		}
		return out
	}()

	approxSpider, restore := solveArm(legacy)
	ratioSpider := costRatio(approxSpider, spider)
	ratioBip := costRatio(approxSpider, bip)
	ratioEqui := costRatio(solver.Equijoin{}, equi)
	restore()

	// A long valid scheme for the simulate workload, fixed per arm.
	simScheme, _, err := solver.SolveAndVerify(solver.Naive{}, bip.Clone())
	if err != nil {
		panic("bench: naive scheme failed: " + err.Error())
	}

	cases := []PerfCase{
		{
			Name: "linegraph/spider-1000-m2000",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					g := spider.Clone()
					if legacy {
						graph.LineGraphReference(g)
					} else {
						graph.LineGraph(g)
					}
				}
			},
		},
		{
			Name: "linegraph/bip-60x40-m2400",
			Run: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					g := bip.Clone()
					if legacy {
						graph.LineGraphReference(g)
					} else {
						graph.LineGraph(g)
					}
				}
			},
		},
		{
			Name: "clawfree-linegraph/spider-1000-m2000",
			Run: func(b *testing.B) {
				// The legacy arm pins the scalar HasEdge-probe kernel over a
				// materialized map-backed line graph; the new arm runs the
				// bitset kernel over the implicit view with scratch reused
				// across scans, as the solver ladder does.
				scratch := graph.NewClawScratch()
				for i := 0; i < b.N; i++ {
					g := spider.Clone()
					var free bool
					if legacy {
						lg := graph.LineGraphReference(g)
						lg.Freeze()
						_, _, claw := graph.FindClawScalar(lg, nil)
						free = !claw
					} else {
						free = graph.ClawFreeLineGraphScratch(g, scratch)
					}
					if !free {
						b.Fatal("spider line graph must be claw-free")
					}
				}
			},
		},
		{
			Name:  "approx125/spider-1000-m2000",
			Extra: map[string]float64{"cost_ratio": ratioSpider},
			Run: func(b *testing.B) {
				s, restore := solveArm(legacy)
				defer restore()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(spider.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "approx125/bip-60x40-m2400",
			Extra: map[string]float64{"cost_ratio": ratioBip},
			Run: func(b *testing.B) {
				s, restore := solveArm(legacy)
				defer restore()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(bip.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "solve-multicomponent/approx125-8x300",
			Extra: map[string]float64{"components": 8},
			Run: func(b *testing.B) {
				s, restore := solveArm(legacy)
				defer restore()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(multi.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name:  "equijoin/islands-12xK10-40-m4800",
			Extra: map[string]float64{"cost_ratio": ratioEqui},
			Run: func(b *testing.B) {
				_, restore := solveArm(legacy)
				defer restore()
				s := solver.Equijoin{}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(equi.Clone()); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			Name: "simulate/bip-60x40-m2400",
			Run: func(b *testing.B) {
				// Preparation differs by design: frozen CSR vs plain map
				// graph. Simulating is the repeated operation, so only it
				// is timed.
				g := bip.Clone()
				if !legacy {
					g.Freeze()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := core.Simulate(g, simScheme)
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
			// sites in hot loops (Held–Karp checkpoints, component solves)
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
				ctx := context.Background()
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
				ctx := context.Background()
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
				g := wide.Clone()
				if !legacy {
					g.Freeze()
				}
				n := g.N()
				b.ResetTimer()
				hits := 0
				for i := 0; i < b.N; i++ {
					if g.HasEdge(i%n, (i*31+7)%n) {
						hits++
					}
				}
				_ = hits
			},
		},
	}
	return append(cases, spiderScaling()...)
}

// spiderScaling is the Theorem 3.1 linear-time series: approx-1.25 on
// spiders with m = 500..8000 edges. Each case keeps its last ns/op, and
// the m8000 case, which runs last, records the least-squares log-log
// slope over all five as its "slope" Extra — near 1 for a linear solve,
// near 3 for a per-strip walk over the line graph, whose hub clique has
// m²/8 edges. Both arms run the implicit view: a materialized line graph
// of the m8000 spider would hold 8M map-backed edges.
func spiderScaling() []PerfCase {
	sizes := []int{500, 1000, 2000, 4000, 8000}
	nsPerOp := make([]float64, len(sizes))
	cases := make([]PerfCase, len(sizes))
	for i, m := range sizes {
		g := family.Spider(m / 2).Graph()
		s := solver.Approx125{}
		extra := map[string]float64{"cost_ratio": costRatio(s, g)}
		cases[i] = PerfCase{
			Name:  fmt.Sprintf("approx125/spider-m%d", m),
			Extra: extra,
			Run: func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					if _, err := s.Solve(g.Clone()); err != nil {
						b.Fatal(err)
					}
				}
				nsPerOp[i] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				if i == len(sizes)-1 && !slices.Contains(nsPerOp, 0) {
					extra["slope"] = logLogSlope(sizes, nsPerOp)
				}
			},
		}
	}
	return cases
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
