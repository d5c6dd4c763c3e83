// Package clean follows every invariant; the golden test asserts
// joinlint exits 0 and prints nothing on it.
package clean

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

// ErrClean is a sentinel, wrapped and compared the sanctioned way.
var ErrClean = errors.New("clean: failure")

// SiteClean names a registered fault site.
const SiteClean = "engine/rung"

var cOps = obs.Default.Counter("clean/ops")

func fire(ctx context.Context) error {
	return faultinject.Fire(ctx, SiteClean)
}

func wrap(n int) error {
	return fmt.Errorf("step %d: %w", n, ErrClean)
}

func check(err error) bool {
	return errors.Is(err, ErrClean) || errors.Is(err, solver.ErrBudgetExceeded)
}

func elapsed() time.Duration {
	start := obs.Now()
	cOps.Inc()
	return obs.Since(start)
}

// hotStore honors the hot-path contract.
//
//joinpebble:hotpath
func hotStore(dst []int, k, v int) {
	dst[k] = v
}

// spawnJoined bounds the goroutine with a WaitGroup join.
func spawnJoined() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cOps.Inc()
	}()
	wg.Wait()
}

// first/second are always acquired in declaration order, and the
// lockrank directives make the hierarchy explicit.
type first struct {
	//joinlint:lockrank clean-first 10
	mu sync.Mutex
}

type second struct {
	//joinlint:lockrank clean-second 20
	mu sync.Mutex
}

var (
	f1 first
	s2 second
)

func orderedLocks() {
	f1.mu.Lock()
	s2.mu.Lock()
	s2.mu.Unlock()
	f1.mu.Unlock()
}

// gauge uses a typed atomic exclusively through its methods.
type gauge struct {
	v atomic.Int64
}

func (g *gauge) set(x int64) {
	g.v.Store(x)
}

func (g *gauge) get() int64 {
	return g.v.Load()
}
