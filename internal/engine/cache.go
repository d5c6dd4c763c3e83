package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"joinpebble/internal/core"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
	"joinpebble/internal/schemecache"
)

// Scheme-cache counters: the cache rung's outcomes (hit/miss), the
// write side (insert, and entries evicted to make room), and how many
// cached schemes were translated back onto a request labeling. The
// fingerprint timer prices the canonicalization the rung pays before
// any lookup.
var (
	cCacheHit       = obs.ScopedCounter("engine/cache/hit")
	cCacheMiss      = obs.ScopedCounter("engine/cache/miss")
	cCacheInsert    = obs.ScopedCounter("engine/cache/insert")
	cCacheEvict     = obs.ScopedCounter("engine/cache/evict")
	cCacheTranslate = obs.ScopedCounter("engine/cache/translate")
	tFingerprint    = obs.ScopedTimer("engine/cache/fingerprint")
)

// CachedSolverName is the provenance label a cache-served scheme
// carries in Result.Solver, Result.Attempts, and scope events.
const CachedSolverName = "cached"

// canonScratch pools fingerprint scratch buffers across concurrent
// runs, the same steady-state-zero-alloc posture as the solver arenas.
var canonScratch = sync.Pool{New: func() any { return graph.NewCanonScratch() }}

// cacheState threads one run's fingerprint work between the cache rung
// and the post-solve insert: the key and labeling are computed once
// (under the fingerprint span) and reused for both directions.
type cacheState struct {
	cache *schemecache.Cache
	fp    graph.Fingerprint
	perm  []int32
	keyed bool
	entry schemecache.Entry // the hit entry, for quality provenance
}

// key computes (once) the instance's cache key: the canonical graph
// fingerprint mixed with the family label, the guarantee bits, and the
// planned solver's name. Mixing the planned solver keeps hits
// quality-faithful — a strict exact run can never be served a scheme
// that was planned as an approximation.
func (cs *cacheState) key(ctx context.Context, in *Instance, plan Plan, g *graph.Graph) {
	if cs.keyed {
		return
	}
	sp := obs.StartSpanCtx(ctx, "engine/cache/fingerprint")
	defer sp.End()
	start := obs.Now()
	sc := canonScratch.Get().(*graph.CanonScratch)
	perm, fp := graph.Canonicalize(g, sc)
	canonScratch.Put(sc)
	cs.fp = fp.Mix(hashString(in.Family), guaranteeBits(in.Guarantees), hashString(plan.Solver.Name()))
	cs.perm = perm
	cs.keyed = true
	tFingerprint.Observe(ctx, obs.Since(start))
}

// attempt is the cache rung: fingerprint, lookup, translate back to the
// request labeling, and re-verify against the simulator. Any failure —
// miss, shape mismatch, corrupt entry, cost drift — is a miss; the
// cache is never trusted over the referee.
func (cs *cacheState) attempt(ctx context.Context, in *Instance, plan Plan, g *graph.Graph) (core.Scheme, int, error) {
	cs.key(ctx, in, plan, g)
	ent, err := cs.cache.Get(cs.fp)
	if err != nil {
		cCacheMiss.Inc(ctx)
		return nil, 0, err
	}
	if ent.N != g.N() || ent.M != g.M() {
		cCacheMiss.Inc(ctx)
		return nil, 0, fmt.Errorf("schemecache: entry shape %dv/%de does not match instance %dv/%de", ent.N, ent.M, g.N(), g.M())
	}
	scheme := schemecache.FromCanonical(ent.Scheme, cs.perm)
	cCacheTranslate.Inc(ctx)
	cost, err := core.VerifyContext(ctx, g, scheme)
	if err != nil {
		cCacheMiss.Inc(ctx)
		return nil, 0, fmt.Errorf("schemecache: cached scheme failed verification: %w", err)
	}
	if cost != ent.Cost {
		cCacheMiss.Inc(ctx)
		return nil, 0, fmt.Errorf("schemecache: cached scheme verified at cost %d, entry says %d", cost, ent.Cost)
	}
	cCacheHit.Inc(ctx)
	cs.entry = ent
	return scheme, cost, nil
}

// insert stores a freshly solved, verified scheme under the run's key,
// in canonical labels. Only undegraded solves are cached: the key
// carries the planned solver, so an entry must hold the quality that
// plan promised, not whatever a fallback rung salvaged.
func (cs *cacheState) insert(ctx context.Context, g *graph.Graph, rung string, scheme core.Scheme, cost int) {
	if !cs.keyed {
		return
	}
	evicted := cs.cache.Insert(cs.fp, schemecache.Entry{
		Scheme: schemecache.ToCanonical(scheme, cs.perm),
		N:      g.N(),
		M:      g.M(),
		Cost:   cost,
		Solver: rung,
	})
	cCacheInsert.Inc(ctx)
	cCacheEvict.Add(ctx, int64(evicted))
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func guaranteeBits(gu Guarantees) uint64 {
	var bits uint64
	if gu.CompleteBipartite {
		bits |= 1
	}
	if gu.Universal {
		bits |= 2
	}
	return bits
}
