package main

import (
	"math"
	"math/rand"
	"time"

	"joinpebble/internal/serve"
)

// workload is one traffic mix. Every request is drawn from the run's
// seed, so pebbled only ever receives generated requests and the same
// seed replays the same stream.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	mix []serve.LoadMix
	// Per-side relation sizes: bounded Pareto on [minSize, maxSize]
	// with tail index alpha.
	minSize, maxSize int
	alpha            float64
	// distinct > 0 draws that many instances once, fills them into the
	// scheme cache during set-up, and then requests them uniformly; 0
	// gives every request a fresh workload seed.
	distinct int
	// closedRate is the closed phase's throughput in requests per second
	// on the reference machine (README.md, "Baseline"); it sizes the
	// closed slices.
	closedRate float64
	// openRate is the open phase's Poisson arrival rate in requests per
	// second, a seventh to a quarter of closedRate: whole blocks in an
	// open slice of the default run (openSlice rounds other lengths to
	// whole blocks). Both connections are then rarely busy at once, so
	// the open tail is not decided by how a slower moment of a shared
	// machine happens to stack arrivals into a queue.
	openRate float64
	// replay is how many leading closed-phase requests the traced run
	// replays.
	replay int
}

// workloads are the benchmark's traffic mixes. Each exercises one group
// of layers and bypasses another, so a change to one layer has a
// workload predicted to move and one predicted to stay put.
var workloads = []*workload{
	{
		name:       "equijoin-fresh",
		why:        "equijoins only, fresh seeds: the Thm 3.2 perfect route and hash build; approx-1.25, exact search and the nested-loop build are bypassed",
		mix:        []serve.LoadMix{{Family: "equijoin", Weight: 1, Skew: 1.2}},
		minSize:    128,
		maxSize:    1024,
		alpha:      1.5,
		closedRate: 200,
		openRate:   32,
		replay:     300,
	},
	{
		name:       "universal-cold",
		why:        "containment and spatial, fresh seeds: approx-1.25 does nearly all the work and the scheme cache only takes writes",
		mix:        []serve.LoadMix{{Family: "containment", Weight: 0.5}, {Family: "spatial", Weight: 0.5, Skew: 3}},
		minSize:    64,
		maxSize:    160,
		alpha:      1.5,
		closedRate: 125,
		openRate:   32,
		replay:     200,
	},
	{
		name:       "repeat-hot",
		why:        "32 instances cached at set-up, then repeated: every request is a verified cache hit, so no solver runs",
		mix:        serve.DefaultMix(),
		minSize:    64,
		maxSize:    160,
		alpha:      1.5,
		distinct:   32,
		closedRate: 820,
		openRate:   160,
		replay:     500,
	},
	{
		// repeat-hot's instance shapes without the repeats: the same pair
		// of workloads then prices the scheme cache. Sizes start at 64
		// because smaller universal instances route to exact search, whose
		// few multi-second solves per run would decide every number (see
		// README.md).
		name:       "mixed-fresh",
		why:        "the default serve mix at repeat-hot's sizes with fresh seeds: every request misses the cache and is solved, planned by family",
		mix:        serve.DefaultMix(),
		minSize:    64,
		maxSize:    160,
		alpha:      1.5,
		closedRate: 245,
		openRate:   32,
		replay:     200,
	},
}

// workloadByName returns the named workload, or nil.
func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Sub-stream salts: each part of a run draws from its own generator, so
// the open phase never depends on how many requests the closed phase
// got through.
const (
	saltInstances = 1
	saltClosed    = 2
	saltOpen      = 3
	saltArrivals  = 4
	saltWarmup    = 5
)

func subRand(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// blockSize is how many requests a stream draws at a time. Every block
// holds the same request shapes under every seed (see shapes), so the
// rare large instances that dominate the work do not make one seed's run
// look slower than another's; the seed decides their order and each
// request's workload seed.
const blockSize = 64

// stream is one phase's deterministic request sequence.
type stream struct {
	w    *workload
	rng  *rand.Rand
	pool []serve.SolveRequest // the distinct instances, when w.distinct > 0
	buf  []serve.SolveRequest // the rest of the current block
}

func newStream(w *workload, seed, salt int64) *stream {
	return &stream{w: w, rng: subRand(seed, salt), pool: instances(w, seed)}
}

// instances returns the workload's distinct instances (nil for fresh
// workloads), one stratified block of them. Every phase of a run sees
// the same ones.
func instances(w *workload, seed int64) []serve.SolveRequest {
	if w.distinct == 0 {
		return nil
	}
	return w.block(subRand(seed, saltInstances), w.distinct)
}

func (s *stream) next() serve.SolveRequest {
	if len(s.pool) > 0 {
		return s.pool[s.rng.Intn(len(s.pool))]
	}
	if len(s.buf) == 0 {
		s.buf = s.w.block(s.rng, blockSize)
	}
	req := s.buf[0]
	s.buf = s.buf[1:]
	return req
}

// take returns the next n requests.
func (s *stream) take(n int) []serve.SolveRequest {
	out := make([]serve.SolveRequest, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// block draws n fresh requests: w.shapes(n) in an order drawn from rng,
// each with its own workload seed.
func (w *workload) block(rng *rand.Rand, n int) []serve.SolveRequest {
	shapes := w.shapes(n)
	out := make([]serve.SolveRequest, n)
	for i, k := range rng.Perm(n) {
		out[i] = shapes[k]
		out[i].Seed = rng.Int63()
	}
	return out
}

// shapeSeed fixes how shapes pairs the family strata with the two sides'
// size strata.
const shapeSeed = 0

// shapes returns n request shapes, everything but the workload seed.
// Every family gets its weighted share, and each side's size is the
// midpoint of one of n equal-probability strata of the bounded Pareto.
// The pairing comes from shapeSeed, not the run's seed: with a seeded
// pairing (and a uniform point inside each stratum) set-up time, the
// open tail and repeat-hot's 32 instances depended on whether a seed
// happened to put large sizes on both sides of the same requests.
func (w *workload) shapes(n int) []serve.SolveRequest {
	var total float64
	for _, m := range w.mix {
		total += m.Weight
	}
	rng := rand.New(rand.NewSource(shapeSeed))
	fams, lefts, rights := strata(rng, n), strata(rng, n), strata(rng, n)
	out := make([]serve.SolveRequest, n)
	for i := range out {
		pick := fams[i] * total
		mix := w.mix[len(w.mix)-1]
		for _, m := range w.mix {
			if pick < m.Weight {
				mix = m
				break
			}
			pick -= m.Weight
		}
		out[i] = serve.SolveRequest{
			Family: mix.Family,
			Left:   boundedPareto(lefts[i], w.minSize, w.maxSize, w.alpha),
			Right:  boundedPareto(rights[i], w.minSize, w.maxSize, w.alpha),
			Skew:   mix.Skew,
		}
	}
	return out
}

// strata returns the midpoints of n equal strata of [0, 1), in random
// order.
func strata(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i, k := range rng.Perm(n) {
		out[i] = (float64(k) + 0.5) / float64(n)
	}
	return out
}

// boundedPareto maps u in [0, 1) through the inverse CDF of the Pareto
// distribution with tail index alpha truncated to [lo, hi]: the bulk
// sits near lo and sizes up to hi keep their small true probability.
func boundedPareto(u float64, lo, hi int, alpha float64) int {
	r := math.Pow(float64(lo)/float64(hi), alpha)
	x := float64(lo) / math.Pow(1-u*(1-r), 1/alpha)
	return min(hi, max(lo, int(x)))
}

// schedule draws n arrival offsets of a Poisson process at rate per
// second, its exponential gaps stratified like a block's sizes.
func schedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	var at float64
	for i, u := range strata(rng, n) {
		at += -math.Log(1-u) / rate
		due[i] = time.Duration(at * float64(time.Second))
	}
	return due
}
