package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"joinpebble/internal/core"
	"joinpebble/internal/family"
	"joinpebble/internal/faultinject"
	"joinpebble/internal/graph"
	"joinpebble/internal/schemecache"
	"joinpebble/internal/solver"
	"joinpebble/internal/workload"
)

func testCache() *schemecache.Cache { return schemecache.New(1<<22, 4) }

// cacheSweep is the generator sweep the differential tests run the
// cache rung over: every predicate family (via seeded workloads), the
// structural families, and line graphs — the shapes the cache is built
// to amortize.
func cacheSweep(t *testing.T) map[string]*Instance {
	t.Helper()
	instances := map[string]*Instance{}
	for seed := int64(1); seed <= 2; seed++ {
		for _, w := range []Workload{
			workload.Equijoin{LeftSize: 20, RightSize: 20, Domain: 5, Skew: 0.4},
			workload.SetContainment{LeftSize: 12, RightSize: 12, Universe: 30, LeftMax: 2, RightMax: 6, Correlated: true},
			workload.Spatial{LeftSize: 15, RightSize: 15, Span: 20, MaxExtent: 5},
		} {
			in, err := Generate(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			instances[fmt.Sprintf("%s/seed%d", in.Family, seed)] = in
		}
	}
	for _, name := range family.All() {
		for _, size := range []int{3, 6} {
			b, err := family.Build(name, size)
			if err != nil {
				t.Fatal(err)
			}
			instances[fmt.Sprintf("%s/%d", name, size)] = FromBipartite(string(name), b)
		}
	}
	for _, k := range []int{4, 7} {
		lg := graph.LineGraph(family.Spider(k).Graph())
		instances[fmt.Sprintf("line-spider/%d", k)] = FromGraph(lg)
	}
	return instances
}

// TestCacheWarmSolveByteIdentical: a repeated solve of the same
// instance is served from the cache, carries "cached" provenance in
// Attempts, and the translated scheme is byte-identical to the cold
// solve's.
func TestCacheWarmSolveByteIdentical(t *testing.T) {
	for name, in := range cacheSweep(t) {
		t.Run(name, func(t *testing.T) {
			p := Planner{Cache: testCache()}
			cold, err := p.Run(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Solver == CachedSolverName {
				t.Fatal("cold solve cannot be a cache hit")
			}
			warm, err := p.Run(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Solver != CachedSolverName {
				t.Fatalf("warm solve used %q, want %q (attempts: %+v)", warm.Solver, CachedSolverName, warm.Attempts)
			}
			if len(warm.Attempts) != 1 || warm.Attempts[0].Solver != CachedSolverName || warm.Attempts[0].Err != "" {
				t.Fatalf("warm attempts %+v, want exactly one clean %q attempt", warm.Attempts, CachedSolverName)
			}
			if !reflect.DeepEqual(warm.Scheme, cold.Scheme) {
				t.Fatalf("cached scheme diverges from fresh solve:\nwarm: %v\ncold: %v", warm.Scheme, cold.Scheme)
			}
			if warm.Cost != cold.Cost || warm.EffectiveCost != cold.EffectiveCost {
				t.Fatalf("cached costs (%d,%d) != fresh (%d,%d)", warm.Cost, warm.EffectiveCost, cold.Cost, cold.EffectiveCost)
			}
			if warm.Degraded {
				t.Fatal("cache hit marked degraded")
			}
			st := p.Cache.Stats()
			if st.Hits != 1 || st.Inserts != 1 {
				t.Fatalf("stats %+v, want 1 hit / 1 insert", st)
			}
		})
	}
}

// TestCachePermutedDuplicates: a relabeled copy of a structural-family
// instance fingerprints identically, hits the cache, and the translated
// scheme verifies at exactly the fresh solve's cost on the permuted
// labeling.
func TestCachePermutedDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, name := range family.All() {
		if name == family.NameGrid {
			// Outside the canonicalizer's completeness contract (see
			// graph.Canonicalize): permuted grids may fingerprint apart,
			// which is a safe miss, not a correctness bug.
			continue
		}
		t.Run(string(name), func(t *testing.T) {
			b, err := family.Build(name, 5)
			if err != nil {
				t.Fatal(err)
			}
			g := b.Graph()
			pi := rng.Perm(g.N())
			var hEdges []graph.Edge
			for _, i := range rng.Perm(g.M()) {
				e := g.EdgeAt(i)
				hEdges = append(hEdges, graph.Edge{U: pi[e.U], V: pi[e.V]})
			}
			h := graph.New(g.N(), hEdges)
			// Ingest both as raw graphs under the same label so the
			// cache key depends only on structure.
			p := Planner{Cache: testCache()}
			cold, err := p.Run(context.Background(), FromGraph(g))
			if err != nil {
				t.Fatal(err)
			}
			warm, err := p.Run(context.Background(), FromGraph(h))
			if err != nil {
				t.Fatal(err)
			}
			if warm.Solver != CachedSolverName {
				t.Fatalf("permuted duplicate used %q, want cache hit", warm.Solver)
			}
			if warm.Cost != cold.Cost {
				t.Fatalf("permuted duplicate verified cost %d != original %d", warm.Cost, cold.Cost)
			}
			// The hit was verified inside the rung; re-verify here to
			// keep the test independent of engine internals.
			if cost, err := core.Verify(h, warm.Scheme); err != nil || cost != warm.Cost {
				t.Fatalf("translated scheme invalid on permuted labeling: cost=%d err=%v", cost, err)
			}
		})
	}
}

// TestCacheKeySeparatesFamiliesAndSolvers: the same graph under a
// different family label or a different planned solver must not share a
// cache entry.
func TestCacheKeySeparatesFamiliesAndSolvers(t *testing.T) {
	b := family.Spider(5)
	p := Planner{Cache: testCache()}
	if _, err := p.Run(context.Background(), FromBipartite("spider", b)); err != nil {
		t.Fatal(err)
	}
	other, err := p.Run(context.Background(), FromBipartite("weblike", b))
	if err != nil {
		t.Fatal(err)
	}
	if other.Solver == CachedSolverName {
		t.Fatal("different family label must miss")
	}
	strict := Planner{Cache: p.Cache, Solver: solver.Naive{}}
	viaNaive, err := strict.Run(context.Background(), FromBipartite("spider", b))
	if err != nil {
		t.Fatal(err)
	}
	if viaNaive.Solver == CachedSolverName {
		t.Fatal("different planned solver must miss")
	}
}

// TestCacheParallelRuns hammers one shared cache from concurrent
// planners — the -race configuration CI runs. Every warm result must
// byte-match its own fresh solve.
func TestCacheParallelRuns(t *testing.T) {
	cache := testCache()
	sweep := cacheSweep(t)
	var wg sync.WaitGroup
	errs := make(chan error, len(sweep)*3)
	for name, in := range sweep {
		wg.Add(1)
		go func(name string, in *Instance) {
			defer wg.Done()
			p := Planner{Cache: cache}
			var first *Result
			for round := 0; round < 3; round++ {
				res, err := p.Run(context.Background(), in)
				if err != nil {
					errs <- fmt.Errorf("%s round %d: %w", name, round, err)
					return
				}
				if first == nil {
					first = res
					continue
				}
				if res.Cost != first.Cost || !reflect.DeepEqual(res.Scheme, first.Scheme) {
					errs <- fmt.Errorf("%s round %d: scheme/cost drifted under concurrency", name, round)
					return
				}
			}
		}(name, in)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatal("parallel sweep never hit the cache")
	}
}

// TestCacheLookupFaultForcesColdPath: with the lookup site armed, a
// warm instance still solves — through the planned rung, not the cache.
func TestCacheLookupFaultForcesColdPath(t *testing.T) {
	defer faultinject.Reset()
	in := FromBipartite("spider", family.Spider(4))
	p := Planner{Cache: testCache()}
	if _, err := p.Run(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(schemecache.SiteLookup, faultinject.Fault{Err: errors.New("injected")})
	res, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver == CachedSolverName {
		t.Fatal("forced miss still served from cache")
	}
	if res.Degraded {
		t.Fatal("forced cache miss must not count as degradation")
	}
}

// TestCacheCorruptEntryCaughtByVerify: with the corrupt site armed, the
// cache returns a damaged scheme; the rung's re-verification must
// reject it and the run must fall through to a correct fresh solve.
func TestCacheCorruptEntryCaughtByVerify(t *testing.T) {
	defer faultinject.Reset()
	in := FromBipartite("spider", family.Spider(4))
	p := Planner{Cache: testCache()}
	cold, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(schemecache.SiteCorrupt, faultinject.Fault{Err: errors.New("injected")})
	res, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver == CachedSolverName {
		t.Fatal("corrupt entry served as a hit")
	}
	if res.Cost != cold.Cost {
		t.Fatalf("fresh fallback cost %d != original %d", res.Cost, cold.Cost)
	}
	if res.Degraded {
		t.Fatal("a rejected cache entry must not count as degradation")
	}
}

// TestCacheDegradedSolvesNotInserted: a run that fell down the ladder
// must not poison the cache with the planned rung's key.
func TestCacheDegradedSolvesNotInserted(t *testing.T) {
	defer faultinject.Reset()
	in := FromBipartite("spider", family.Spider(4))
	p := Planner{Cache: testCache()}
	// Fail the planned rung once; skip is 0 so the first solver attempt
	// degrades to approx-1.25.
	faultinject.Arm(SiteRung, faultinject.Fault{
		Err:   fmt.Errorf("%w: injected", solver.ErrBudgetExceeded),
		Times: 1,
	})
	res, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("test setup: run did not degrade")
	}
	if st := p.Cache.Stats(); st.Inserts != 0 {
		t.Fatalf("degraded solve inserted into cache: %+v", st)
	}
	faultinject.Reset()
	// The next run must be a clean miss + fresh planned-rung solve.
	res2, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Solver == CachedSolverName {
		t.Fatal("cache served an entry that was never inserted")
	}
	if res2.Degraded {
		t.Fatal("second run degraded unexpectedly")
	}
}

// TestCacheQualityProvenance: a hit's Quality names both the cache and
// the producing solver's bound.
func TestCacheQualityProvenance(t *testing.T) {
	in := FromBipartite("spider", family.Spider(4))
	p := Planner{Cache: testCache()}
	cold, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	want := "cached: " + qualityFor(cold.Solver)
	if warm.Quality != want {
		t.Fatalf("warm quality %q, want %q", warm.Quality, want)
	}
}

// TestNoCacheMeansNoCacheRung: a zero-value Planner never reports
// cached provenance and never pays the fingerprint.
func TestNoCacheMeansNoCacheRung(t *testing.T) {
	var p Planner
	in := FromBipartite("spider", family.Spider(4))
	for i := 0; i < 2; i++ {
		res, err := p.Run(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Solver == CachedSolverName {
			t.Fatal("cache-free planner produced cached provenance")
		}
		for _, a := range res.Attempts {
			if a.Solver == CachedSolverName {
				t.Fatal("cache-free planner recorded a cache attempt")
			}
		}
	}
}

// TestCacheStrictRuns: -strict (Degrade.Off) runs still use the cache —
// a hit is a verified planned-quality scheme — and a miss leaves strict
// failure semantics intact.
func TestCacheStrictRuns(t *testing.T) {
	in := FromBipartite("spider", family.Spider(4))
	p := Planner{Cache: testCache(), Degrade: solver.LadderPolicy{Off: true}}
	cold, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Solver != CachedSolverName {
		t.Fatalf("strict warm run used %q, want cache hit", warm.Solver)
	}
	if !reflect.DeepEqual(warm.Scheme, cold.Scheme) {
		t.Fatal("strict cached scheme diverges from fresh solve")
	}
}
