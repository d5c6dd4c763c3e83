// Package ctxloopout is outside the search packages; ctxloop must
// ignore even a blatantly unchecked expansion loop here.
package ctxloopout

import (
	"context"

	"joinpebble/internal/faultinject"
)

func fireLoop(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		_ = faultinject.Fire(ctx, "out/fixture")
	}
}
