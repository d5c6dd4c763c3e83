// Package faultinject provides deterministic, test-scoped failure points
// for the solver and engine hot paths. Production code registers *sites*
// — named places where a failure can be injected — by calling Fire; tests
// arm a site with a Fault (an error to return, a value to panic with, a
// delay to sleep) and every degradation path in the engine can be driven
// end to end without constructing a pathological workload.
//
// Disarmed cost. Fire is a no-op guarded by a single atomic load while
// nothing is armed anywhere, so sites are safe to leave in hot paths;
// the bench harness's faultinject/disarmed-fire series keeps that claim
// honest against the regression baseline. The per-site bookkeeping
// (mutex, hit counts, Skip/Times arithmetic) is only paid while at least
// one fault is armed — i.e. inside tests.
//
// Determinism. Arming is keyed by site name; activation order at a site
// follows its hit order under a mutex, so Skip/Times schedules are exact.
// A solve hits its sites from one goroutine, components in order, so a
// schedule picks out one component; only concurrent solves, such as
// pebbled's admitted requests, interleave their hits at a site.
//
// The canonical site-name registry lives in DESIGN.md ("Degradation
// ladder and fault injection"); site names are package/path-style
// strings such as "solver/component" owned by the package that fires
// them.
package faultinject

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"joinpebble/internal/obs"
)

func init() {
	// Let obs.Scope flag requests during which any site fired without
	// obs importing this package (obs stays dependency-free; the wiring
	// points the other way).
	obs.FaultFiredTotal = FiredTotal
}

// Fault describes what happens when an armed site fires. Effects apply
// in order: Delay (sleep), then Panic, then Err. The zero Fault is
// inert — arming it still counts hits, which makes {Skip:0, Times:0}
// a pure hit-counter probe for asserting a site is reached.
type Fault struct {
	// Err, when non-nil, is returned from Fire. Arm with a wrapped
	// sentinel (e.g. fmt.Errorf("%w: injected", solver.ErrBudgetExceeded))
	// to drive the caller's errors.Is matching.
	Err error
	// Panic, when non-nil, is passed to panic() — the forced-panic
	// injection the solver's recovery paths are tested with.
	Panic any
	// Delay, when non-zero, blocks Fire for the duration before the
	// other effects, so a deadline can be forced to expire mid-solve.
	Delay time.Duration
	// Skip suppresses the first Skip activations of the site, so a
	// fault can target e.g. only the third component solved.
	Skip int
	// Times caps how many activations actually fire after Skip;
	// 0 means every one.
	Times int
}

// site is the armed state at one name.
type site struct {
	fault Fault
	hits  int64 // Fire calls observed while armed
	fired int64 // activations that applied the fault's effects
}

var (
	// armedCount gates Fire: zero means nothing is armed anywhere and
	// Fire returns after one atomic load. It counts armed sites.
	armedCount atomic.Int64

	// firedTotal counts fault activations process-wide, across all sites
	// and surviving Reset, so a sampler (obs.Scope) can detect "a fault
	// fired while I was open" from two loads.
	firedTotal atomic.Int64

	//joinlint:lockrank faultinject-sites 80
	mu    sync.Mutex
	sites = map[string]*site{}
)

// FiredTotal returns the process-wide number of fault activations that
// applied their effects, across all sites since process start (Reset
// does not rewind it).
func FiredTotal() int64 { return firedTotal.Load() }

// Arm installs f at the named site, replacing any previous fault there.
// The site's hit and fired counts restart at zero.
func Arm(name string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[name]; !ok {
		armedCount.Add(1)
	}
	sites[name] = &site{fault: f}
}

// Disarm removes the fault at the named site, if any.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[name]; ok {
		delete(sites, name)
		armedCount.Add(-1)
	}
}

// Reset disarms every site. Tests that arm faults must defer a Reset so
// no fault leaks into later tests.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armedCount.Add(-int64(len(sites)))
	sites = map[string]*site{}
}

// Armed reports whether any site is armed.
func Armed() bool { return armedCount.Load() > 0 }

// Hits returns how many times the named site fired while armed (hits
// while disarmed are not observable — Fire returns before any
// bookkeeping). Zero for unarmed sites.
func Hits(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if s, ok := sites[name]; ok {
		return s.hits
	}
	return 0
}

// Fired returns how many activations at the named site applied their
// fault's effects (hits minus those suppressed by Skip/Times).
func Fired(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if s, ok := sites[name]; ok {
		return s.fired
	}
	return 0
}

// Fire is the production-side hook: call it at a named site with the
// context of the work in hand; it applies the armed fault's effects, if
// any. An armed Delay sleeps under ctx, returning ctx.Err() the moment
// the work is cancelled instead of holding the caller for the full
// injected duration; Err and Panic effects ignore ctx. While nothing is
// armed anywhere it is a no-op after one atomic load, so it is safe in
// hot paths.
//
//joinpebble:hotpath
func Fire(ctx context.Context, name string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	return fire(ctx, name)
}

// fire is the slow path, split out so Fire stays inlinable.
func fire(ctx context.Context, name string) error {
	mu.Lock()
	s, ok := sites[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	s.hits++
	f := s.fault
	active := s.hits > int64(f.Skip) &&
		(f.Times == 0 || s.fired < int64(f.Times))
	if active {
		s.fired++
		firedTotal.Add(1)
	}
	mu.Unlock()
	if !active {
		return nil
	}
	// Effects run outside the lock so a Delay at one site never blocks
	// arming, disarming, or other sites firing. The sleep selects on the
	// caller's context (a Background context's Done channel is nil, so
	// the timer always wins there), so a cancelled request gets its
	// cancellation back instead of the remainder of the delay.
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if f.Panic != nil {
		panic(f.Panic)
	}
	return f.Err
}
