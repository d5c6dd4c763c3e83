package graph

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"joinpebble/internal/bitset"
	"joinpebble/internal/faultinject"
	"joinpebble/internal/obs"
)

// This file is the bitset claw-scan kernel behind FindClaw — the
// Theorem 3.1 precondition check that dominated the bench trajectory
// (clawfree-linegraph/spider-1000-m2000) before this rewrite.
//
// The scalar kernel tests neighbor triples with per-pair HasEdge probes:
// O(Δ²) binary searches per center just to find one non-adjacent pair.
// The bitset kernel instead materializes adjacency *rows* — one dense
// bitset.Bitset over vertex ids per vertex, built lazily the first time a
// vertex appears as a candidate leaf and cached for the rest of the scan
// — and turns the "three pairwise non-adjacent neighbors" test into two
// chained complement intersections:
//
//	cand  = N(v) &^ row(l1)   // leaves non-adjacent to l1
//	cand2 = cand &^ row(l2)   // ... and to l2; any survivor is l3
//
// 64 pair tests per word operation instead of one per binary search.
// Rows are shared across centers (the clique rows of a spider's line
// graph are probed by every clique vertex), so the total build cost is
// bounded by Σ deg(v) = 2|E| per scan, not per center.
//
// Both kernels enumerate triples in the same canonical order — ascending
// vertex id, lexicographic (l1, l2, l3) — so they return identical claws
// and the parallel scan below can define its winner without reference to
// scheduling.

// SiteClawScan fires every clawCheckpointStride centers in the scan
// loops (sequential and per-worker): inject a Delay to hold a scan
// mid-flight or an error to abort it (registry in DESIGN.md).
const SiteClawScan = "graph/clawscan"

// clawCheckpointMask guards the cancellation checkpoints of the scan
// loops: stride 1024, well under ctxloop's provable bound.
const clawCheckpointMask = 0x3FF

// ClawScanWorkers, when non-nil, supplies the worker count for parallel
// claw scans, following the solver.Parallelism convention (<= 0 means
// GOMAXPROCS). internal/solver registers its Parallelism knob here at
// init, so one setting governs both the component pool and the claw
// scan; with no registration scans run sequentially.
var ClawScanWorkers func() int

// clawRowBudgetWords caps the row-cache slab at n rows × n/64 words.
// Beyond it (n ≈ 23k at the default 64 MiB) FindClaw falls back to
// the scalar kernel, trading speed for O(Δ) memory. A var so tests can
// force the fallback on small instances.
var clawRowBudgetWords = 8 << 20

// clawParallelMinN is the smallest vertex count worth fanning workers
// out over; below it the row prebuild barrier costs more than it saves.
const clawParallelMinN = 512

// ClawScratch is the reusable state of a bitset claw scan: the adjacency
// row slab with its built-row index, plus the per-probe masks. A scratch
// may be reused across scans of different graphs — Reset re-sizes and
// invalidates cached rows — which is what callers running repeated claw
// checks (the bench suite, solver-ladder structure probes) thread
// through FindClaw to stop re-growing fresh slices.
//
// A scratch is single-goroutine state; the parallel scan hands each
// worker its own probe block and shares only the (pre-built, read-only)
// row slab.
type ClawScratch struct {
	n     int // vertex count of the current scan
	words int // words per row
	rows  []uint64
	built bitset.Bitset
	rowNb []int // neighbor buffer for lazy row builds

	probe clawProbe // sequential probe state
}

// clawProbe is the per-goroutine portion of a scan: the neighbor list of
// the current center and the three masks of the triple enumeration.
type clawProbe struct {
	nb     []int
	nbMask bitset.Bitset
	cand   bitset.Bitset
	cand2  bitset.Bitset
}

// NewClawScratch returns an empty scratch; Reset (called by every scan
// entry point) sizes it to the graph at hand.
func NewClawScratch() *ClawScratch { return &ClawScratch{} }

// Reset prepares the scratch for a scan over n vertices: grows the row
// slab and masks if needed and invalidates previously built rows. Only
// rows actually built by the prior scan are re-zeroed, so a scratch that
// found a claw early stays cheap to reset.
func (s *ClawScratch) Reset(n int) {
	words := (n + 63) >> 6
	if cap(s.rows) < n*words {
		s.rows = make([]uint64, n*words)
		s.built = bitset.New(n)
		s.probe.size(n, words)
		s.n, s.words = n, words
		return
	}
	s.rows = s.rows[:n*words]
	// Zero the stale rows of the previous scan before invalidating them.
	for u := s.built.NextSet(0); u >= 0; u = s.built.NextSet(u + 1) {
		if (u+1)*s.words <= len(s.rows) {
			row := bitset.Bitset(s.rows[u*s.words : (u+1)*s.words])
			row.ClearAll()
		}
	}
	if len(s.built) < (n+63)>>6 {
		s.built = bitset.New(n)
	} else {
		s.built.ClearAll()
	}
	// A geometry change leaves reused words in rows that belonged to
	// other rows' regions zeroed above only if built tracked them; a
	// dimension switch therefore re-zeroes wholesale.
	if words != s.words || n != s.n {
		for i := range s.rows {
			s.rows[i] = 0
		}
		s.built.ClearAll()
	}
	s.probe.size(n, words)
	s.n, s.words = n, words
}

func (p *clawProbe) size(n, words int) {
	if len(p.nbMask) < words {
		p.nbMask = bitset.New(n)
		p.cand = bitset.New(n)
		p.cand2 = bitset.New(n)
		return
	}
	p.nbMask = p.nbMask[:words]
	p.cand = p.cand[:words]
	p.cand2 = p.cand2[:words]
	p.nbMask.ClearAll()
}

// row returns the adjacency row of u, building it on first use.
func (s *ClawScratch) row(a Adjacency, u int) bitset.Bitset {
	r := bitset.Bitset(s.rows[u*s.words : (u+1)*s.words])
	if !s.built.Test(u) {
		s.rowNb = a.AppendNeighbors(s.rowNb[:0], u)
		for _, w := range s.rowNb {
			r.Set(w)
		}
		s.built.Set(u)
	}
	return r
}

// probeCenter tests one center for the canonical lowest claw: the
// lexicographically first (l1, l2, l3) in ascending vertex id with all
// three pairwise non-adjacent. With lazyRows set, missing adjacency rows
// are built on first use (sequential scans); parallel workers pass false
// and read the phase-1 slab as immutable, because the lazy path mutates
// scratch state (rowNb, built) that is not safe to share.
func (p *clawProbe) probeCenter(a Adjacency, s *ClawScratch, v int, lazyRows bool) (leaves [3]int, ok bool) {
	p.nb = a.AppendNeighbors(p.nb[:0], v)
	for _, u := range p.nb {
		p.nbMask.Set(u)
	}
	row := func(u int) bitset.Bitset {
		if lazyRows {
			return s.row(a, u)
		}
		return bitset.Bitset(s.rows[u*s.words : (u+1)*s.words])
	}
	for l1 := p.nbMask.NextSet(0); l1 >= 0 && !ok; l1 = p.nbMask.NextSet(l1 + 1) {
		p.cand.AndNot(p.nbMask, row(l1))
		p.cand.ClearThrough(l1)
		for l2 := p.cand.NextSet(0); l2 >= 0; l2 = p.cand.NextSet(l2 + 1) {
			p.cand2.AndNot(p.cand, row(l2))
			p.cand2.ClearThrough(l2)
			if l3 := p.cand2.NextSet(0); l3 >= 0 {
				leaves, ok = [3]int{l1, l2, l3}, true
				break
			}
		}
	}
	// The mask is cleared neighbor-by-neighbor (O(Δ), not O(n/64)) so
	// the next center starts clean without a full sweep.
	for _, u := range p.nb {
		p.nbMask.Clear(u)
	}
	return leaves, ok
}

// Claw-detection accounting: one timer observation and one check counter
// per search, a found counter per claw — the "claw count" quantity
// DESIGN.md maps to Theorem 3.1's claw-freeness precondition. The vars
// are scope-aware: FindClaw records into the obs.Scope on its context
// when one is present, else into the global registry.
var (
	cClawChecks    = obs.ScopedCounter("graph/claw/checks")
	cClawsFound    = obs.ScopedCounter("graph/claw/found")
	tClawDetection = obs.ScopedTimer("graph/phase/claw_detection")
)

// FindClaw searches a for an induced K_{1,3} (a claw): a center vertex
// with three pairwise non-adjacent neighbors. Line graphs are always
// claw-free (Harary), which Theorem 3.1's DFS construction depends on;
// pass NewLineGraphView(g) to check L(g) without materializing it.
//
// The search is the bitset kernel with row-cache reuse through s (nil
// allocates a fresh scratch; a scratch must not be shared between
// concurrent scans), a parallel vertex scan when the registered
// parallelism knob asks for one, cancellation checkpoints every 1024
// centers, and a scalar fallback when the row slab would exceed its
// memory budget. It returns the claw with the lowest center, with the
// canonical leaf triple for that center — deterministic at every worker
// count — or ok=false if a is claw-free. err is non-nil only on ctx
// cancellation or an injected SiteClawScan fault.
func FindClaw(ctx context.Context, a Adjacency, s *ClawScratch) (center int, leaves [3]int, ok bool, err error) {
	start := obs.Now()
	defer func() {
		tClawDetection.Observe(ctx, obs.Since(start))
		cClawChecks.Inc(ctx)
		if ok {
			cClawsFound.Inc(ctx)
		}
	}()
	n := a.N()
	words := (n + 63) >> 6
	if n*words > clawRowBudgetWords {
		return scalarClawScan(ctx, a, nil)
	}
	if s == nil {
		s = NewClawScratch()
	}
	s.Reset(n)
	if w := clawScanWorkerCount(n); w > 1 {
		return findClawParallel(ctx, a, s, w)
	}
	for v := 0; v < n; v++ {
		if v&clawCheckpointMask == 0 {
			if err := faultinject.Fire(SiteClawScan); err != nil {
				return 0, [3]int{}, false, err
			}
			if err := ctx.Err(); err != nil {
				return 0, [3]int{}, false, err
			}
		}
		if a.Degree(v) < 3 {
			continue
		}
		if l, found := s.probe.probeCenter(a, s, v, true); found {
			return v, l, true, nil
		}
	}
	return 0, [3]int{}, false, nil
}

func clawScanWorkerCount(n int) int {
	if ClawScanWorkers == nil || n < clawParallelMinN {
		return 1
	}
	w := ClawScanWorkers()
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if max := (n + clawParallelMinN - 1) / clawParallelMinN; w > max {
		w = max
	}
	return w
}

// findClawParallel fans the vertex loop out over w workers. Two phases:
//
//  1. Row prebuild — workers claim disjoint vertex ranges off an atomic
//     cursor and build their rows into disjoint slab regions, so the
//     scan phase reads the slab with no synchronization at all.
//  2. Scan — workers claim chunks of centers off a second cursor and
//     keep a shared atomic "best center found". A worker scans its
//     chunks in ascending order, so its first find is its lowest; it
//     then stops, because every chunk it could still claim lies above
//     its find. A center is skipped only when it exceeds the current
//     best, and the best only decreases, so every center below the
//     final minimum is provably scanned by someone — which makes the
//     returned claw (minimum center across workers, canonical triple
//     within it) identical to the sequential scan's at any w.
func findClawParallel(ctx context.Context, a Adjacency, s *ClawScratch, w int) (center int, leaves [3]int, ok bool, err error) {
	n := s.n
	const chunk = 256
	var buildNext, scanNext atomic.Int64
	best := atomic.Int64{}
	best.Store(int64(n)) // sentinel above every real center

	type result struct {
		center int
		leaves [3]int
		err    error
	}
	results := make([]result, w)
	for i := range results {
		results[i].center = -1
	}

	var wg, buildWg sync.WaitGroup
	buildWg.Add(w)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			// Phase 1: build rows for disjoint vertex ranges. Rows are
			// written into disjoint slab regions, and the barrier below
			// publishes them before any worker starts probing, so the
			// scan phase reads the slab lock-free.
			var nb []int
			for ctx.Err() == nil {
				lo := int(buildNext.Add(chunk)) - chunk
				if lo >= n {
					break
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for u := lo; u < hi; u++ {
					row := bitset.Bitset(s.rows[u*s.words : (u+1)*s.words])
					nb = a.AppendNeighbors(nb[:0], u)
					for _, x := range nb {
						row.Set(x)
					}
					// Chunks are 256-aligned, so each worker touches a
					// disjoint range of built's words: no synchronization
					// needed beyond the barrier below.
					s.built.Set(u)
				}
			}
			buildWg.Done()
			buildWg.Wait()
			if err := ctx.Err(); err != nil {
				results[wi].err = err // rows may be incomplete; abort
				return
			}
			// Phase 2: scan chunks of centers.
			probe := clawProbe{nb: nb}
			probe.size(n, s.words)
			for {
				lo := int(scanNext.Add(chunk)) - chunk
				if lo >= n || int64(lo) > best.Load() {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for v := lo; v < hi; v++ {
					if v&clawCheckpointMask == 0 {
						if err := faultinject.Fire(SiteClawScan); err != nil {
							results[wi].err = err
							return
						}
						if err := ctx.Err(); err != nil {
							results[wi].err = err
							return
						}
					}
					if int64(v) > best.Load() {
						return // everything this worker can still reach is higher
					}
					if a.Degree(v) < 3 {
						continue
					}
					if l, found := probe.probeCenter(a, s, v, false); found {
						results[wi] = result{center: v, leaves: l}
						// Lower the shared bound; losing a race only
						// means the other worker's center was lower.
						for {
							cur := best.Load()
							if int64(v) >= cur || best.CompareAndSwap(cur, int64(v)) {
								break
							}
						}
						return
					}
				}
			}
		}(k)
	}
	wg.Wait()
	minC := -1
	for _, r := range results {
		if r.err != nil && err == nil {
			err = r.err
		}
		if r.center >= 0 && (minC < 0 || r.center < minC) {
			minC, leaves = r.center, r.leaves
		}
	}
	// An aborted worker may have left centers below minC unscanned, so
	// a claw found elsewhere is not provably the lowest: the error wins.
	// (built already reflects exactly the rows phase 1 managed to write,
	// so an aborted scratch stays reusable.)
	if err != nil {
		return 0, [3]int{}, false, err
	}
	if minC >= 0 {
		return minC, leaves, true, nil
	}
	return 0, [3]int{}, false, nil
}

// scalarClawScan is the reference kernel: per-pair HasEdge probes over
// neighbor triples, in the same canonical ascending-id order as the
// bitset kernel. It is the fallback above the row-cache memory budget
// and the tests' differential oracle. nb is neighbor scratch reused
// across centers (nil is fine).
//
//joinpebble:hotpath
func scalarClawScan(ctx context.Context, a Adjacency, nb []int) (center int, leaves [3]int, ok bool, err error) {
	for v := 0; v < a.N(); v++ {
		if v&clawCheckpointMask == 0 {
			if err := faultinject.Fire(SiteClawScan); err != nil {
				return 0, [3]int{}, false, err
			}
			if err := ctx.Err(); err != nil {
				return 0, [3]int{}, false, err
			}
		}
		if a.Degree(v) < 3 {
			continue
		}
		nb = a.AppendNeighbors(nb[:0], v)
		slices.Sort(nb) // canonical ascending-id order, shared with the bitset kernel
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				if a.HasEdge(nb[i], nb[j]) {
					continue
				}
				for k := j + 1; k < len(nb); k++ {
					if !a.HasEdge(nb[i], nb[k]) && !a.HasEdge(nb[j], nb[k]) {
						return v, [3]int{nb[i], nb[j], nb[k]}, true, nil
					}
				}
			}
		}
	}
	return 0, [3]int{}, false, nil
}
