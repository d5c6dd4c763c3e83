// Package pages implements the page-fetch scheduling model of Merrett,
// Kambayashi and Yasuura ([6] in the paper), which §2's related-work
// discussion credits with the original pebbling game and whose
// NP-completeness Theorem 4.2 inherits. Tuples live on fixed-capacity
// disk pages; producing a joining pair requires both pages resident, and
// with one memory frame per relation the I/O schedule is exactly the
// two-pebble game played on the page graph — the quotient of the join
// graph under the tuple-to-page assignment. The pebbling cost is the
// number of page fetches.
package pages

import (
	"context"
	"fmt"
	"sort"

	"joinpebble/internal/core"
	"joinpebble/internal/engine"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
	"joinpebble/internal/solver"
)

// Page-model accounting: fetches is the [6]-model I/O cost (π̂ on the
// page graph), page_pairs the quotient graph's edge count. The fetch
// histogram makes layout comparisons (sequential vs value-clustered)
// readable straight off a -metrics snapshot.
var (
	cPlans       = obs.Default.Counter("pages/plans")
	cFetches     = obs.Default.Counter("pages/fetches")
	cPagePairs   = obs.Default.Counter("pages/page_pairs")
	hFetchCounts = obs.Default.Histogram("pages/fetches_per_plan", obs.Pow2Buckets(24))
)

// Layout assigns every tuple of each relation to a page.
type Layout struct {
	// RPage[i] is the page of left tuple i; SPage[j] of right tuple j.
	RPage, SPage []int
	// NRPages and NSPages are the page counts.
	NRPages, NSPages int
}

// Validate checks page indices are dense and in range.
func (l *Layout) Validate() error {
	if l.NRPages < 0 || l.NSPages < 0 {
		return fmt.Errorf("pages: negative page count")
	}
	for i, p := range l.RPage {
		if p < 0 || p >= l.NRPages {
			return fmt.Errorf("pages: RPage[%d]=%d outside [0,%d)", i, p, l.NRPages)
		}
	}
	for j, p := range l.SPage {
		if p < 0 || p >= l.NSPages {
			return fmt.Errorf("pages: SPage[%d]=%d outside [0,%d)", j, p, l.NSPages)
		}
	}
	return nil
}

// Sequential paginates tuples in input order, capacity tuples per page —
// the layout a heap file gives you.
func Sequential(nLeft, nRight, capacity int) *Layout {
	if capacity < 1 {
		panic("pages: capacity must be >= 1")
	}
	l := &Layout{RPage: make([]int, nLeft), SPage: make([]int, nRight)}
	for i := range l.RPage {
		l.RPage[i] = i / capacity
	}
	for j := range l.SPage {
		l.SPage[j] = j / capacity
	}
	l.NRPages = pagesFor(nLeft, capacity)
	l.NSPages = pagesFor(nRight, capacity)
	return l
}

// ValueClustered sorts integer columns by value before paginating — the
// layout a clustered index gives an equijoin. Joining tuples concentrate
// on few page pairs, so the page graph stays sparse and cheap to pebble.
func ValueClustered(ls, rs []int64, capacity int) *Layout {
	if capacity < 1 {
		panic("pages: capacity must be >= 1")
	}
	l := &Layout{RPage: make([]int, len(ls)), SPage: make([]int, len(rs))}
	for rank, i := range sortedIdx(ls) {
		l.RPage[i] = rank / capacity
	}
	for rank, j := range sortedIdx(rs) {
		l.SPage[j] = rank / capacity
	}
	l.NRPages = pagesFor(len(ls), capacity)
	l.NSPages = pagesFor(len(rs), capacity)
	return l
}

func sortedIdx(vs []int64) []int {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vs[idx[a]] < vs[idx[b]] })
	return idx
}

func pagesFor(n, capacity int) int {
	if n == 0 {
		return 0
	}
	return (n + capacity - 1) / capacity
}

// PageGraph returns the quotient join graph over pages: page P of R is
// joined to page Q of S iff some tuple pair spanning them joins. This is
// the graph [6]'s game is played on.
func PageGraph(b *graph.Bipartite, l *Layout) (*graph.Bipartite, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if len(l.RPage) != b.NLeft() || len(l.SPage) != b.NRight() {
		return nil, fmt.Errorf("pages: layout covers %dx%d tuples, join graph has %dx%d",
			len(l.RPage), len(l.SPage), b.NLeft(), b.NRight())
	}
	pg := graph.NewBipartite(l.NRPages, l.NSPages)
	for e := 0; e < b.M(); e++ {
		i, j := b.EdgeAt(e)
		pg.AddEdge(l.RPage[i], l.SPage[j])
	}
	return pg, nil
}

// Schedule is a page-fetch plan: the pebbling scheme on the page graph
// plus its I/O accounting.
type Schedule struct {
	// Scheme is the verified pebbling scheme over page vertices.
	Scheme core.Scheme
	// Fetches is π̂ of the scheme: total page reads, counting the two
	// initial loads.
	Fetches int
	// PagePairs is the number of page-graph edges — the joins that must
	// be co-resident at least once.
	PagePairs int
	// LowerBound is the universal floor m_pages + β₀ on fetches.
	LowerBound int
}

// Plan computes a page-fetch schedule for join graph b under layout l
// using the given pebbling solver; nil takes the solver the engine
// planner routes the page graph to.
func Plan(b *graph.Bipartite, l *Layout, s solver.Solver) (*Schedule, error) {
	pg, err := PageGraph(b, l)
	if err != nil {
		return nil, err
	}
	g := pg.Graph()
	if s == nil {
		s = (&engine.Planner{}).Plan(engine.FromGraph(g)).Solver
	}
	scheme, cost, err := solver.SolveAndVerify(context.Background(), s, g)
	if err != nil {
		return nil, err
	}
	cPlans.Inc()
	cFetches.Add(int64(cost))
	cPagePairs.Add(int64(g.M()))
	hFetchCounts.Observe(int64(cost))
	return &Schedule{
		Scheme:     scheme,
		Fetches:    cost,
		PagePairs:  g.M(),
		LowerBound: core.LowerBound(g),
	}, nil
}
