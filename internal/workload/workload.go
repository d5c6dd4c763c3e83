// Package workload generates the synthetic relation workloads the
// experiments run on: zipf-skewed integer columns for equijoins,
// random element sets for containment joins, and uniform or clustered
// rectangles for spatial joins. All generators are deterministic given
// the seed, so every experiment in EXPERIMENTS.md is reproducible.
package workload

import (
	"math"
	"math/rand"

	"joinpebble/internal/relation"
	"joinpebble/internal/sets"
	"joinpebble/internal/spatial"
)

// Equijoin describes a pair of integer relations.
type Equijoin struct {
	// Tuples per relation.
	LeftSize, RightSize int
	// Domain is the number of distinct join values.
	Domain int64
	// Skew is the zipf s parameter; 0 means uniform.
	Skew float64
}

// Family names the predicate family this workload generates for; it is
// the key of the engine's predicate table, so engine.Generate can route
// any workload without a per-kind switch.
func (Equijoin) Family() string { return "equijoin" }

// Generate builds the two relations.
func (w Equijoin) Generate(seed int64) (l, r *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	draw := w.drawer(rng)
	lv := make([]int64, w.LeftSize)
	for i := range lv {
		lv[i] = draw()
	}
	rv := make([]int64, w.RightSize)
	for i := range rv {
		rv[i] = draw()
	}
	return relation.FromInts("R", lv), relation.FromInts("S", rv)
}

func (w Equijoin) drawer(rng *rand.Rand) func() int64 {
	if w.Skew <= 0 {
		return func() int64 { return rng.Int63n(w.Domain) }
	}
	// rand.Zipf requires s > 1; clamp below that to uniform-ish skew via
	// an exponent-weighted inverse transform for 0 < s <= 1.
	if w.Skew > 1 {
		z := rand.NewZipf(rng, w.Skew, 1, uint64(w.Domain-1))
		return func() int64 { return int64(z.Uint64()) }
	}
	return func() int64 {
		// Low-skew power law: value ~ floor(D · u^(1+3s)) biases toward
		// small values as s grows.
		u := rng.Float64()
		v := int64(float64(w.Domain) * math.Pow(u, 1.0+w.Skew*3))
		if v >= w.Domain {
			v = w.Domain - 1
		}
		return v
	}
}

// SetContainment describes a pair of set relations where left sets are
// (typically smaller) probe sets and right sets are larger storage sets,
// mirroring the subset-probe workloads of [5] and [14].
type SetContainment struct {
	LeftSize, RightSize int
	// Universe is the element domain size.
	Universe int
	// LeftMax and RightMax bound the set cardinalities.
	LeftMax, RightMax int
	// Correlated, when true, draws left sets as subsets of random right
	// sets so the join produces output (pure random sets rarely join).
	Correlated bool
}

// Family names the predicate family this workload generates for.
func (SetContainment) Family() string { return "containment" }

// Generate builds the two relations.
func (w SetContainment) Generate(seed int64) (l, r *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	// scratch holds one set's draws; sets.New makes the set's only copy.
	scratch := make([]uint32, max(w.LeftMax, w.RightMax))
	rv := make([]sets.Set, w.RightSize)
	for i := range rv {
		rv[i] = randomSet(rng, w.RightMax, w.Universe, scratch)
	}
	perm := make([]int, w.RightMax) // subsetOf's permutation, reused for every left set
	lv := make([]sets.Set, w.LeftSize)
	for i := range lv {
		if w.Correlated && len(rv) > 0 {
			base := rv[rng.Intn(len(rv))]
			lv[i] = subsetOf(rng, base, w.LeftMax, scratch, perm)
		} else {
			lv[i] = randomSet(rng, w.LeftMax, w.Universe, scratch)
		}
	}
	return relation.FromSets("R", lv), relation.FromSets("S", rv)
}

// randomSet draws 1..maxLen elements below universe into scratch, which
// must hold maxLen.
func randomSet(rng *rand.Rand, maxLen, universe int, scratch []uint32) sets.Set {
	es := scratch[:1+rng.Intn(maxLen)]
	for i := range es {
		es[i] = uint32(rng.Intn(universe))
	}
	return sets.New(es...)
}

// subsetOf draws 1..maxLen distinct elements of base into scratch, which
// must hold maxLen, picking them by a random permutation of base built
// in perm, which must hold len(base). The permutation replays
// rng.Perm's draws, so the sets are the ones rng.Perm would give.
func subsetOf(rng *rand.Rand, base sets.Set, maxLen int, scratch []uint32, perm []int) sets.Set {
	elems := base.Elems()
	if len(elems) == 0 {
		return sets.New()
	}
	n := 1 + rng.Intn(maxLen)
	if n > len(elems) {
		n = len(elems)
	}
	perm = perm[:len(elems)]
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	out := scratch[:n]
	for i := range out {
		out[i] = elems[perm[i]]
	}
	return sets.New(out...)
}

// Spatial describes a pair of rectangle relations.
type Spatial struct {
	LeftSize, RightSize int
	// Span is the side length of the square universe.
	Span float64
	// MaxExtent bounds rectangle side lengths.
	MaxExtent float64
	// Clusters > 0 concentrates rectangles around that many cluster
	// centers (skewed spatial data); 0 means uniform.
	Clusters int
}

// Family names the predicate family this workload generates for.
func (Spatial) Family() string { return "spatial" }

// Generate builds the two relations.
func (w Spatial) Generate(seed int64) (l, r *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	var centers []spatial.Point
	for i := 0; i < w.Clusters; i++ {
		centers = append(centers, spatial.Point{X: rng.Float64() * w.Span, Y: rng.Float64() * w.Span})
	}
	gen := func(n int) []spatial.Rect {
		out := make([]spatial.Rect, n)
		for i := range out {
			var x, y float64
			if len(centers) > 0 {
				c := centers[rng.Intn(len(centers))]
				x = c.X + (rng.Float64()-0.5)*w.Span/10
				y = c.Y + (rng.Float64()-0.5)*w.Span/10
			} else {
				x = rng.Float64() * w.Span
				y = rng.Float64() * w.Span
			}
			out[i] = spatial.NewRect(x, y, x+rng.Float64()*w.MaxExtent, y+rng.Float64()*w.MaxExtent)
		}
		return out
	}
	return relation.FromRects("R", gen(w.LeftSize)), relation.FromRects("S", gen(w.RightSize))
}
