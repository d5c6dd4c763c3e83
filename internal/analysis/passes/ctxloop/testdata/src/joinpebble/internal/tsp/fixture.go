// Package tsp mirrors the real search package's import path so the
// ctxloop scope filter applies to these fixtures.
package tsp

import (
	"context"

	"joinpebble/internal/faultinject"
)

const mask = 0x3FF

// uncheckedLoop expands without ever looking at ctx.
func uncheckedLoop(ctx context.Context, n int) error {
	for s := 0; s < n; s++ { // want `loop in function uncheckedLoop calls faultinject\.Fire \(search expansion\) but never checks ctx\.Err`
		if s&mask == 0 {
			if err := faultinject.Fire(ctx, "tsp/fixture-expand"); err != nil {
				return err
			}
		}
	}
	return nil
}

// sparseLoop checks, but only every 2^17 expansions.
func sparseLoop(ctx context.Context, n int) error {
	for s := 0; s < n; s++ {
		if s&0x1FFFF == 0 {
			if err := faultinject.Fire(ctx, "tsp/fixture-expand"); err != nil {
				return err
			}
			if err := ctx.Err(); err != nil { // want `checks cancellation only every 131072 expansions`
				return err
			}
		}
	}
	return nil
}

// boundedLoop is the repo's canonical checkpoint shape.
func boundedLoop(ctx context.Context, n int) error {
	for s := 0; s < n; s++ {
		if s&mask == 0 {
			if err := faultinject.Fire(ctx, "tsp/fixture-expand"); err != nil {
				return err
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// eagerLoop checks every iteration, unguarded.
func eagerLoop(ctx context.Context, n int) error {
	for s := 0; s < n; s++ {
		if err := faultinject.Fire(ctx, "tsp/fixture-expand"); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	return nil
}

// recursiveUnchecked mirrors a branch-and-bound dfs that forgot its
// checkpoint: the expansion loop only recurses, so the function body
// itself must carry the check.
func recursiveUnchecked(ctx context.Context, depth int) {
	var nodes int64
	var dfs func(d int)
	dfs = func(d int) { // want `self-recursive closure dfs calls faultinject\.Fire \(search expansion\) but never checks ctx\.Err`
		nodes++
		if nodes&mask == 0 {
			_ = faultinject.Fire(ctx, "tsp/fixture-expand")
		}
		if d == 0 {
			return
		}
		dfs(d - 1)
	}
	dfs(depth)
}

// recursiveChecked is the compliant dfs shape.
func recursiveChecked(ctx context.Context, depth int) {
	var nodes int64
	var dfs func(d int)
	dfs = func(d int) {
		nodes++
		if nodes&mask == 0 {
			_ = faultinject.Fire(ctx, "tsp/fixture-expand")
			if ctx.Err() != nil {
				return
			}
		}
		if d == 0 {
			return
		}
		dfs(d - 1)
	}
	dfs(depth)
}

// plainLoop never fires an expansion checkpoint: not a search loop.
func plainLoop(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += i
	}
	return total
}
