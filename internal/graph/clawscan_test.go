package graph

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"joinpebble/internal/faultinject"
)

// testSpider mirrors family.Spider (which cannot be imported here
// without a cycle): center c joined to n middles, each middle to one
// leaf. Its line graph is K_n plus a pendant per clique vertex —
// claw-free, the hard case the bench series pins.
func testSpider(n int) *Graph {
	g := New(1 + 2*n)
	for i := 0; i < n; i++ {
		g.AddEdge(0, 1+i)     // center – middle_i
		g.AddEdge(1+i, 1+n+i) // middle_i – leaf_i
	}
	return g
}

// star returns K_{1,k}: the smallest claw carrier for k >= 3.
func star(k int) *Graph {
	g := New(k + 1)
	for i := 1; i <= k; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// clawDiffCases builds the differential corpus: spiders, random
// bipartite and general graphs, and their line graphs (claw-free side).
func clawDiffCases(rng *rand.Rand) []*Graph {
	cases := []*Graph{
		New(0),
		New(1),
		star(3),
		star(7),
		testSpider(5),
		testSpider(40),
		LineGraph(testSpider(40)),
	}
	for i := 0; i < 8; i++ {
		nl, nr := 6+rng.Intn(8), 5+rng.Intn(6)
		lo, hi := nl+nr-1, nl*nr
		b := RandomConnectedBipartite(rng, nl, nr, lo+rng.Intn(hi-lo+1))
		cases = append(cases, b.Graph(), LineGraph(b.Graph()))
	}
	for i := 0; i < 8; i++ {
		n := 8 + rng.Intn(12)
		g := RandomConnectedGraph(rng, n, n-1+rng.Intn(12), 0)
		cases = append(cases, g, LineGraph(g))
	}
	return cases
}

// checkKernelsAgree asserts the bitset kernel (through s, which may be
// nil) and the scalar oracle return identical results on a.
func checkKernelsAgree(t *testing.T, a Adjacency, s *ClawScratch) {
	t.Helper()
	wc, wl, wok, err := scalarClawScan(context.Background(), a, nil)
	if err != nil {
		t.Fatalf("scalarClawScan: %v", err)
	}
	gc, gl, gok, err := FindClaw(context.Background(), a, s)
	if err != nil {
		t.Fatalf("FindClaw: %v", err)
	}
	if gok != wok || gc != wc || gl != wl {
		t.Fatalf("kernels disagree: bitset (%d, %v, %v) vs scalar (%d, %v, %v)",
			gc, gl, gok, wc, wl, wok)
	}
	if wok {
		// The claw must actually be a claw, not just agreed upon.
		l := wl
		if !a.HasEdge(wc, l[0]) || !a.HasEdge(wc, l[1]) || !a.HasEdge(wc, l[2]) {
			t.Fatalf("center %d not adjacent to all of %v", wc, l)
		}
		if a.HasEdge(l[0], l[1]) || a.HasEdge(l[0], l[2]) || a.HasEdge(l[1], l[2]) {
			t.Fatalf("leaves %v not pairwise non-adjacent", l)
		}
	}
}

func TestClawKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i, g := range clawDiffCases(rng) {
		g.Optimize()
		checkKernelsAgree(t, g, nil)
		// And over the implicit line-graph view, the production shape.
		checkKernelsAgree(t, NewLineGraphView(g), nil)
		_ = i
	}
}

func TestClawScratchReuseAcrossScans(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := NewClawScratch()
	// Interleave graphs of very different sizes so Reset exercises both
	// the stale-row sweep and the geometry-change re-zero.
	for i, g := range clawDiffCases(rng) {
		g.Optimize()
		checkKernelsAgree(t, g, s)
		if i%3 == 0 {
			checkKernelsAgree(t, NewLineGraphView(g), s)
		}
	}
	// Same graph twice through one scratch: the second scan hits warm rows.
	lg := LineGraph(testSpider(60))
	checkKernelsAgree(t, lg, s)
	checkKernelsAgree(t, lg, s)
}

func TestClawFreeLineGraphScratch(t *testing.T) {
	s := NewClawScratch()
	for _, n := range []int{1, 4, 33, 80} {
		if _, _, claw, err := FindClaw(context.Background(), NewLineGraphView(testSpider(n)), s); err != nil || claw {
			t.Fatalf("spider(%d) line graph must be claw-free: claw=%v err=%v", n, claw, err)
		}
	}
	_, _, withScratch, _ := FindClaw(context.Background(), NewLineGraphView(star(3)), s)
	_, _, without, _ := FindClaw(context.Background(), NewLineGraphView(star(3)), nil)
	if withScratch != without {
		t.Fatal("scratch and scratchless results differ")
	}
}

// withWorkers runs f with the claw-scan parallelism hook pinned to w.
func withWorkers(w int, f func()) {
	prev := ClawScanWorkers
	ClawScanWorkers = func() int { return w }
	defer func() { ClawScanWorkers = prev }()
	f()
}

func TestClawParallelDeterministic(t *testing.T) {
	// Large enough (n >= clawParallelMinN) that the parallel path engages.
	rng := rand.New(rand.NewSource(43))
	cases := []Adjacency{
		NewLineGraphView(testSpider(400)),                                // n=800, claw-free
		star(700).Optimize(),                                             // claw at 0 immediately
		RandomConnectedBipartite(rng, 400, 300, 2100).Graph().Optimize(), // claws likely, mid-scan
		LineGraph(RandomConnectedBipartite(rng, 300, 300, 900).Graph()),  // claw-free, n=900
	}
	for ci, a := range cases {
		wantC, wantL, wantOK, err := FindClaw(context.Background(), a, nil)
		if err != nil {
			t.Fatalf("case %d sequential: %v", ci, err)
		}
		for _, w := range []int{1, 2, 8} {
			withWorkers(w, func() {
				s := NewClawScratch()
				c, l, ok, err := FindClaw(context.Background(), a, s)
				if err != nil {
					t.Fatalf("case %d workers=%d: %v", ci, w, err)
				}
				if ok != wantOK || c != wantC || l != wantL {
					t.Fatalf("case %d workers=%d: got (%d, %v, %v), want (%d, %v, %v)",
						ci, w, c, l, ok, wantC, wantL, wantOK)
				}
				// A parallel scan leaves the scratch warm; a sequential
				// rescan through it must agree.
				withWorkers(1, func() {
					c2, l2, ok2, err := FindClaw(context.Background(), a, s)
					if err != nil || ok2 != wantOK || c2 != wantC || l2 != wantL {
						t.Fatalf("case %d warm rescan after workers=%d: got (%d, %v, %v, %v)",
							ci, w, c2, l2, ok2, err)
					}
				})
			})
		}
	}
}

func TestClawRowBudgetFallback(t *testing.T) {
	prev := clawRowBudgetWords
	clawRowBudgetWords = 1 // force every non-trivial scan onto the scalar path
	defer func() { clawRowBudgetWords = prev }()
	rng := rand.New(rand.NewSource(44))
	for _, g := range clawDiffCases(rng) {
		g.Optimize()
		checkKernelsAgree(t, g, nil)
	}
}

func TestClawScanCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := NewLineGraphView(testSpider(200))
	if _, _, _, err := FindClaw(ctx, a, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential: err = %v, want context.Canceled", err)
	}
	withWorkers(4, func() {
		if _, _, _, err := FindClaw(ctx, a, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel: err = %v, want context.Canceled", err)
		}
	})
}

func TestClawScanFaultInjection(t *testing.T) {
	defer faultinject.Reset()
	injected := errors.New("injected claw-scan fault")
	a := NewLineGraphView(testSpider(600)) // n=1200: checkpoints at v=0 and v=1024

	faultinject.Arm(SiteClawScan, faultinject.Fault{Err: injected})
	if _, _, _, err := FindClaw(context.Background(), a, nil); !errors.Is(err, injected) {
		t.Fatalf("sequential: err = %v, want injected", err)
	}
	withWorkers(4, func() {
		// The error must outrank any claw a worker may have found.
		if _, _, _, err := FindClaw(context.Background(), a, nil); !errors.Is(err, injected) {
			t.Fatalf("parallel: err = %v, want injected", err)
		}
	})
	faultinject.Reset()

	// A later armed firing (Skip past the first checkpoint) aborts a scan
	// mid-flight; the scratch must still be reusable afterwards.
	s := NewClawScratch()
	faultinject.Arm(SiteClawScan, faultinject.Fault{Err: injected, Skip: 1, Times: 1})
	if _, _, _, err := FindClaw(context.Background(), a, s); !errors.Is(err, injected) {
		t.Fatalf("mid-scan: err = %v, want injected", err)
	}
	faultinject.Reset()
	checkKernelsAgree(t, a, s)
}

// FuzzClawKernels drives the bitset kernel against the scalar oracle on
// seed-derived random graphs, both raw (clawful) and as line graphs
// (claw-free), with and without scratch reuse.
func FuzzClawKernels(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(20), false)
	f.Add(int64(7), uint8(30), uint8(60), true)
	f.Add(int64(99), uint8(3), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, n, m uint8, asLineGraph bool) {
		nv := 2 + int(n)%40
		ne := nv - 1 + int(m)
		if max := nv * (nv - 1) / 2; ne > max {
			ne = max
		}
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnectedGraph(rng, nv, ne, 0)
		if asLineGraph {
			g = LineGraph(g)
		}
		g.Optimize()
		checkKernelsAgree(t, g, nil)
		checkKernelsAgree(t, g, NewClawScratch())
	})
}
