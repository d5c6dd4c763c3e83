package workload

import (
	"slices"
	"testing"

	"joinpebble/internal/join"
	"joinpebble/internal/relation"
)

func TestEquijoinDeterministic(t *testing.T) {
	w := Equijoin{LeftSize: 50, RightSize: 60, Domain: 10, Skew: 0}
	l1, r1 := w.Generate(42)
	l2, r2 := w.Generate(42)
	if len(l1.Ints()) != 50 || len(r1.Ints()) != 60 {
		t.Fatal("sizes")
	}
	if !slices.Equal(l1.Ints(), l2.Ints()) {
		t.Fatal("same seed must reproduce the left relation")
	}
	if !slices.Equal(r1.Ints(), r2.Ints()) {
		t.Fatal("same seed must reproduce the right relation")
	}
	l3, _ := w.Generate(43)
	if slices.Equal(l1.Ints(), l3.Ints()) {
		t.Fatal("different seeds should (overwhelmingly) differ")
	}
}

func TestEquijoinDomainRespected(t *testing.T) {
	for _, skew := range []float64{0, 0.5, 1.5} {
		w := Equijoin{LeftSize: 300, RightSize: 300, Domain: 7, Skew: skew}
		l, r := w.Generate(1)
		for _, v := range append(l.Ints(), r.Ints()...) {
			if v < 0 || v >= 7 {
				t.Fatalf("skew %v: value %d outside domain", skew, v)
			}
		}
	}
}

func TestEquijoinSkewConcentrates(t *testing.T) {
	uniform := Equijoin{LeftSize: 2000, RightSize: 0, Domain: 100, Skew: 0}
	skewed := Equijoin{LeftSize: 2000, RightSize: 0, Domain: 100, Skew: 2.0}
	lu, _ := uniform.Generate(7)
	ls, _ := skewed.Generate(7)
	topShare := func(r *relation.Relation) float64 {
		counts := map[int64]int{}
		for _, v := range r.Ints() {
			counts[v]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(len(r.Ints()))
	}
	if topShare(ls) <= 2*topShare(lu) {
		t.Fatalf("zipf skew did not concentrate: uniform top=%.3f skewed top=%.3f",
			topShare(lu), topShare(ls))
	}
}

func TestSetContainmentCorrelatedProducesOutput(t *testing.T) {
	w := SetContainment{
		LeftSize: 40, RightSize: 40, Universe: 1000,
		LeftMax: 3, RightMax: 10, Correlated: true,
	}
	l, r := w.Generate(11)
	pairs := join.NestedLoop(l.Sets(), r.Sets(), join.Contains)
	if len(pairs) < 40 {
		t.Fatalf("correlated workload produced only %d result pairs", len(pairs))
	}
	// Uncorrelated over a huge universe should produce almost nothing.
	w.Correlated = false
	l, r = w.Generate(11)
	pairs = join.NestedLoop(l.Sets(), r.Sets(), join.Contains)
	if len(pairs) > 100 {
		t.Fatalf("uncorrelated workload unexpectedly dense: %d pairs", len(pairs))
	}
}

func TestSetCardinalityBounds(t *testing.T) {
	w := SetContainment{LeftSize: 100, RightSize: 100, Universe: 50, LeftMax: 4, RightMax: 9}
	l, r := w.Generate(3)
	for _, s := range l.Sets() {
		if s.Len() < 1 || s.Len() > 4 {
			t.Fatalf("left set cardinality %d outside [1,4]", s.Len())
		}
	}
	for _, s := range r.Sets() {
		if s.Len() < 1 || s.Len() > 9 {
			t.Fatalf("right set cardinality %d outside [1,9]", s.Len())
		}
	}
}

func TestSpatialUniformVsClustered(t *testing.T) {
	uni := Spatial{LeftSize: 200, RightSize: 200, Span: 100, MaxExtent: 2, Clusters: 0}
	clu := Spatial{LeftSize: 200, RightSize: 200, Span: 100, MaxExtent: 2, Clusters: 3}
	lu, ru := uni.Generate(5)
	lc, rc := clu.Generate(5)
	pu := join.NestedLoop(lu.Rects(), ru.Rects(), join.Overlaps)
	pc := join.NestedLoop(lc.Rects(), rc.Rects(), join.Overlaps)
	// Clustering concentrates rectangles, so the join output should grow
	// substantially.
	if len(pc) <= len(pu) {
		t.Fatalf("clustered output %d not denser than uniform %d", len(pc), len(pu))
	}
	for _, r := range append(lu.Rects(), ru.Rects()...) {
		if !r.Valid() {
			t.Fatal("generated invalid rectangle")
		}
	}
}

func TestSpatialDeterministic(t *testing.T) {
	w := Spatial{LeftSize: 30, RightSize: 30, Span: 50, MaxExtent: 5, Clusters: 2}
	l1, _ := w.Generate(9)
	l2, _ := w.Generate(9)
	if !slices.Equal(l1.Rects(), l2.Rects()) {
		t.Fatal("same seed must reproduce rectangles")
	}
}

// TestSetContainmentGenerateAllocs pins one allocation per generated
// set at universal-cold's middle shape with pebbled's parameters
// (112 × 112, universe 64, left max 3, right max 12, correlated): the
// draws go through one scratch buffer, every correlated left set's
// permutation through another, and sets.New makes the only copy.
func TestSetContainmentGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	w := SetContainment{LeftSize: 112, RightSize: 112, Universe: 64, LeftMax: 3, RightMax: 12, Correlated: true}
	if got := testing.AllocsPerRun(20, func() { w.Generate(1) }); got > 231 {
		t.Fatalf("SetContainment.Generate at 112 × 112: %.0f allocations, want at most 231", got)
	}
}
