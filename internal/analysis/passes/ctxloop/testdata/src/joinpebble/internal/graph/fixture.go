// Package graph mirrors the real graph package's import path so the
// ctxloop scope filter applies to these fixtures: the claw-scan kernel
// put internal/graph in scope, and its vertex loop must carry the same
// checkpoint discipline as the tsp/solver search loops.
package graph

import (
	"context"

	"joinpebble/internal/faultinject"
)

const clawMask = 0x3FF

// scanUnchecked fires the claw checkpoint but never consults ctx.
func scanUnchecked(ctx context.Context, n int) error {
	for v := 0; v < n; v++ { // want `loop in function scanUnchecked calls faultinject\.Fire \(search expansion\) but never checks ctx\.Err`
		if v&clawMask == 0 {
			if err := faultinject.Fire(ctx, "graph/fixture-scan"); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanBounded is the kernel's canonical per-center checkpoint shape.
func scanBounded(ctx context.Context, n int) error {
	for v := 0; v < n; v++ {
		if v&clawMask == 0 {
			if err := faultinject.Fire(ctx, "graph/fixture-scan"); err != nil {
				return err
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}
