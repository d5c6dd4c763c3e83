package serve

// Admission control: a bounded-concurrency semaphore with a bounded
// wait queue in front of it. The service's capacity story is two
// numbers — how many solves run at once and how many callers may wait
// for a slot — and everything past them is rejected *immediately* with
// ErrOverload, which the HTTP layer turns into 429 + Retry-After. That
// keeps the overload response time flat: a saturated server answers
// "come back later" in microseconds instead of queuing unboundedly
// until every client times out (the behavior the overload test pins).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"joinpebble/internal/faultinject"
	"joinpebble/internal/obs"
)

// SiteAdmit is the fault-injection site fired on every admission
// attempt (registry in DESIGN.md): an armed error rejects the request
// as overload without filling the semaphore, so the 429 path is
// drivable at any load.
const SiteAdmit = "serve/admit"

// ErrOverload reports that admission was denied: the semaphore is full
// and the wait queue is at capacity (or the queue wait timed out).
// Match with errors.Is; the HTTP layer maps it to 429.
var ErrOverload = errors.New("serve: overloaded")

// Admission outcome counters. Global, not request-scoped: rejected
// requests never open a scope, and capacity is a process-wide property.
var (
	cAdmitted     = obs.Default.Counter("serve/admit/admitted")
	cRejected     = obs.Default.Counter("serve/admit/rejected")
	cQueued       = obs.Default.Counter("serve/admit/queued")
	cQueueTimeout = obs.Default.Counter("serve/admit/queue_timeout")
	cAdmitCancel  = obs.Default.Counter("serve/admit/canceled")
)

// Admission is the bounded-concurrency gate. All methods are safe for
// concurrent use.
type Admission struct {
	slots        chan struct{} // buffered; one token per running request
	waiting      atomic.Int64  // callers blocked on a slot
	maxQueue     int64
	queueTimeout time.Duration
}

// NewAdmission builds a gate admitting maxConcurrent requests at once
// with at most maxQueue callers waiting, each for at most queueTimeout.
// The arguments are taken as given: Start passes Config values that
// withDefaults has made positive.
func NewAdmission(maxConcurrent, maxQueue int, queueTimeout time.Duration) *Admission {
	return &Admission{
		slots:        make(chan struct{}, maxConcurrent),
		maxQueue:     int64(maxQueue),
		queueTimeout: queueTimeout,
	}
}

// Acquire admits the caller or rejects it. On success the returned
// release function must be called exactly once when the request
// finishes (it is idempotent, so a defer is safe). Rejections are
// ErrOverload (full queue, queue timeout, or an injected admission
// fault); a cancelled ctx returns ctx.Err() — the caller is gone, not
// rejected, and the distinction keeps the 429 counters honest.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	if err := faultinject.Fire(ctx, SiteAdmit); err != nil {
		if ctx.Err() != nil {
			cAdmitCancel.Inc()
			return nil, ctx.Err()
		}
		cRejected.Inc()
		return nil, fmt.Errorf("%w: %w", ErrOverload, err)
	}
	select {
	case a.slots <- struct{}{}:
		cAdmitted.Inc()
		return a.releaseFunc(), nil
	default:
	}
	// No free slot: join the bounded wait queue, or bounce.
	if a.waiting.Add(1) > a.maxQueue {
		a.waiting.Add(-1)
		cRejected.Inc()
		return nil, fmt.Errorf("%w: %d solves in flight and %d callers queued", ErrOverload, cap(a.slots), a.maxQueue)
	}
	cQueued.Inc()
	defer a.waiting.Add(-1)
	t := time.NewTimer(a.queueTimeout)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		cAdmitted.Inc()
		return a.releaseFunc(), nil
	case <-t.C:
		cQueueTimeout.Inc()
		cRejected.Inc()
		return nil, fmt.Errorf("%w: queued longer than %s", ErrOverload, a.queueTimeout)
	case <-ctx.Done():
		cAdmitCancel.Inc()
		return nil, ctx.Err()
	}
}

// releaseFunc returns the slot exactly once however many times it is
// called — handlers release on the happy path and defer as a backstop.
func (a *Admission) releaseFunc() func() {
	var once sync.Once
	return func() { once.Do(func() { <-a.slots }) }
}

// InFlight returns the number of admitted, unreleased requests.
func (a *Admission) InFlight() int { return len(a.slots) }

// Waiting returns the current wait-queue depth.
func (a *Admission) Waiting() int64 { return a.waiting.Load() }

// RetryAfter is the wait the service suggests to a rejected caller:
// one queue timeout is the horizon after which the queue the caller
// could not join has provably turned over.
func (a *Admission) RetryAfter() time.Duration { return a.queueTimeout }
