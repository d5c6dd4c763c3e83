// Package schemecache mirrors the real cache package's import path so
// the ctxloop scope filter (extended to internal/schemecache for the
// CLOCK eviction sweep) applies to these fixtures.
package schemecache

import (
	"context"

	"joinpebble/internal/faultinject"
)

// sweepUnchecked models a CLOCK hand scan that fires the eviction
// checkpoint but can spin past a canceled context.
func sweepUnchecked(ctx context.Context, slots []bool) int {
	hand := 0
	for i := 0; i < 2*len(slots); i++ { // want `loop in function sweepUnchecked calls faultinject\.Fire \(search expansion\) but never checks ctx\.Err`
		_ = faultinject.Fire(ctx, "schemecache/fixture-evict")
		if !slots[hand] {
			return hand
		}
		slots[hand] = false
		hand = (hand + 1) % len(slots)
	}
	return -1
}

// sweepChecked consults ctx.Err each revolution.
func sweepChecked(ctx context.Context, slots []bool) int {
	hand := 0
	for i := 0; i < 2*len(slots); i++ {
		if ctx.Err() != nil {
			return -1
		}
		_ = faultinject.Fire(ctx, "schemecache/fixture-evict")
		if !slots[hand] {
			return hand
		}
		slots[hand] = false
		hand = (hand + 1) % len(slots)
	}
	return -1
}

// fingerprintLoop has no faultinject checkpoint: not an expansion loop,
// no check demanded even in a scoped package.
func fingerprintLoop(data []byte) uint64 {
	var h uint64 = 1469598103934665603
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
