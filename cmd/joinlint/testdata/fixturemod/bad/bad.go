// Package bad violates one invariant per analyzer (ctxloop aside,
// which is path-scoped to the real search packages and covered by its
// analysistest fixtures). The golden test asserts joinlint reports
// exactly these findings and exits 1.
package bad

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"joinpebble/internal/faultinject"
	"joinpebble/internal/obs"
	"joinpebble/internal/solver"
)

// ErrBad is a sentinel by the repo convention.
var ErrBad = errors.New("bad: failure")

func dynamicMetric(alg string) *obs.Counter {
	return obs.Default.Counter("bad/" + alg + "/ops")
}

func fireInline(ctx context.Context) error {
	return faultinject.Fire(ctx, "bad/inline-site")
}

func compareSentinel(err error) bool {
	return err == ErrBad
}

func wrapWrong(err error) error {
	if errors.Is(err, solver.ErrBudgetExceeded) {
		return fmt.Errorf("bad: %v", solver.ErrBudgetExceeded)
	}
	return err
}

func bareClock() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// hotAppend claims the hot-path contract and breaks it.
//
//joinpebble:hotpath
func hotAppend(dst []int, v int) []int {
	return append(dst, v)
}

// hotSpawn breaks two invariants on one line: spawning inside a hot
// path allocates (hotalloc), and nothing bounds the goroutine's
// lifetime (golife). The golden file pins that same-position
// diagnostics sort by analyzer name.
//
//joinpebble:hotpath
func hotSpawn() {
	go spin()
}

func spin() {
	for {
		continue
	}
}

// lockA/lockB are acquired in both orders across the two functions
// below: a textbook lock-order cycle.
type lockA struct{ mu sync.Mutex }

type lockB struct{ mu sync.Mutex }

var (
	la lockA
	lb lockB
)

func abOrder() {
	la.mu.Lock()
	lb.mu.Lock()
	lb.mu.Unlock()
	la.mu.Unlock()
}

func baOrder() {
	lb.mu.Lock()
	la.mu.Lock()
	la.mu.Unlock()
	lb.mu.Unlock()
}

// counter mixes atomic and plain access to the same field with no
// guarding lock anywhere.
type counter struct {
	pad int64
	n   int64
}

func (c *counter) bump() {
	atomic.AddInt64(&c.n, 1)
}

func (c *counter) peek() int64 {
	return c.n
}
