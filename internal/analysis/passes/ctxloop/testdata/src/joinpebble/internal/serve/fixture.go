// Package serve mirrors the real service package's import path so the
// ctxloop scope filter (extended to internal/serve for the retry and
// arrival loops) applies to these fixtures.
package serve

import (
	"context"

	"joinpebble/internal/faultinject"
)

// retryUnchecked is the shape the extension exists to catch: a retry
// loop firing a serve checkpoint with no way out on cancellation. Fire
// selects on ctx only while a site is armed with a delay, so handing it
// ctx is an expansion, never a cancellation check.
func retryUnchecked(ctx context.Context, attempts int) error {
	for try := 0; try < attempts; try++ { // want `loop in function retryUnchecked calls faultinject\.Fire \(search expansion\) but never checks ctx\.Err`
		if err := faultinject.Fire(ctx, "serve/fixture-retry"); err != nil {
			return err
		}
	}
	return nil
}

// retryChecked is the real client.go shape: ctx.Err consulted every
// attempt.
func retryChecked(ctx context.Context, attempts int) error {
	for try := 0; try < attempts; try++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := faultinject.Fire(ctx, "serve/fixture-retry"); err != nil {
			return err
		}
	}
	return nil
}
