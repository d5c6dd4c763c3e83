package tsp

import (
	"context"
	"fmt"
	"math/bits"

	"joinpebble/internal/faultinject"
	"joinpebble/internal/obs"
)

// cHeldKarpStates counts the (subset, end city) states the exact search
// evaluates: n·2^(n−1) for a finished search, the intermediate quantity
// its exponential bound talks about. It is accumulated in a local inside
// the subset loop and flushed once per call, so the loop stays
// counter-free. The binding is scope-aware: a search run under a scoped
// context (an engine solve) flushes into its request's obs.Scope.
var cHeldKarpStates = obs.ScopedCounter("tsp/heldkarp/states_expanded")

// SiteExactExpand is the fault-injection site (see the registry in
// DESIGN.md) at the subset loop's cancellation checkpoint: it fires every
// checkpointMask+1 subsets, so an armed Delay reliably pushes a deadline
// past expiry mid-component — the scenario the engine's degradation
// ladder must survive. An injected error aborts the search with that
// error.
const SiteExactExpand = "tsp/exact/expand"

// checkpointMask spaces the cancellation checks in the subset loop:
// ctx.Err is consulted every checkpointMask+1 subsets, so a canceled
// context unwinds a component within a bounded number of subsets instead
// of only at component boundaries.
const checkpointMask = 0x3FF

// MaxExactCities bounds the exact search: it keeps 5 bytes per subset of
// cities, so 22 cities take 2^22 subsets and 21 MB, and each further
// city doubles both the memory and the time (the tsp/exact-m* bench
// series).
const MaxExactCities = 22

// Exact computes an optimal tour by dynamic programming over subsets of
// cities. Held–Karp keeps the cheapest path for every (subset, end)
// pair; with step costs in {1, 2} a subset S needs only two facts, its
// fewest jumps J[S] over all paths that visit exactly S, and the set
// E[S] of end cities that achieve them. City v ends a path over S with
//
//	f(S, v) = J[S∖v] + [no city of E[S∖v] is a good neighbour of v]
//
// jumps, because any path over S∖v costs at least J[S∖v] and one that
// ends in E[S∖v] costs exactly that. O(2^n · n) time and 5 bytes per
// subset. The tour ends at the lowest city of E[full] and is rebuilt by
// walking back, taking at each step the lowest predecessor that keeps
// the path optimal — Held–Karp's own tie-break, so the tour is the one
// Held–Karp returns.
//
// The subset loop checks ctx every checkpointMask+1 subsets, so
// cancellation unwinds promptly even inside one large component. The
// search has no usable partial answer: a canceled search returns
// ctx.Err() and the caller is expected to fall down the solver ladder.
// Instances above MaxExactCities are an error.
func Exact(ctx context.Context, in *Instance) (Tour, int, error) {
	n := in.N()
	if n == 0 {
		return Tour{}, 0, nil
	}
	if n == 1 {
		return Tour{0}, 0, nil
	}
	if n > MaxExactCities {
		return nil, 0, fmt.Errorf("tsp: %d cities exceeds exact limit %d", n, MaxExactCities)
	}

	good := make([]uint32, n)
	for v := range good {
		for _, u := range in.Good.Neighbors(v) {
			good[v] |= 1 << u
		}
	}
	size := uint32(1) << n
	jumps := make([]uint8, size)
	ends := make([]uint32, size)
	var states int64
	for s := uint32(1); s < size; s++ {
		if s&checkpointMask == 0 {
			if err := faultinject.Fire(ctx, SiteExactExpand); err != nil {
				cHeldKarpStates.Add(ctx, states)
				return nil, 0, err
			}
			if err := ctx.Err(); err != nil {
				cHeldKarpStates.Add(ctx, states)
				return nil, 0, err
			}
		}
		states += int64(bits.OnesCount32(s))
		best, end := uint8(n), uint32(0) // more jumps than any path has
		for rest := s; rest != 0; rest &= rest - 1 {
			v := bits.TrailingZeros32(rest)
			f := endJumps(jumps, ends, good, s, v)
			if f < best {
				best, end = f, 1<<v
			} else if f == best {
				end |= 1 << v
			}
		}
		jumps[s], ends[s] = best, end
	}
	cHeldKarpStates.Add(ctx, states)

	// Walk back from the lowest optimal end city.
	s := size - 1
	v := bits.TrailingZeros32(ends[s])
	f := jumps[s]
	tour := make(Tour, n)
	for i := n - 1; i > 0; i-- {
		tour[i] = v
		s &^= 1 << v
		for rest := s; ; rest &= rest - 1 {
			u := bits.TrailingZeros32(rest)
			fu := endJumps(jumps, ends, good, s, u)
			step := fu
			if good[v]&(1<<u) == 0 {
				step++
			}
			if step == f {
				v, f = u, fu
				break
			}
		}
	}
	tour[0] = v
	return tour, n - 1 + int(jumps[size-1]), nil
}

// endJumps is f(s, v): the fewest jumps of a path that visits exactly
// the cities of s and ends at v, read from the tables of s∖v. The path
// over {v} alone has none.
func endJumps(jumps []uint8, ends, good []uint32, s uint32, v int) uint8 {
	t := s &^ (1 << v)
	if t == 0 {
		return 0
	}
	if ends[t]&good[v] == 0 {
		return jumps[t] + 1
	}
	return jumps[t]
}
