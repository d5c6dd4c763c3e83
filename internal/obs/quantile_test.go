package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// The uniform 1..1024 distribution lands exactly on the power-of-two
// bucket edges, so interpolation gives exact values: rank 512 sits at
// the top of the (256,512] bucket and rank 1013.76 interpolates inside
// (512,1024]. These pins hold for both the timer's fixed layout and a
// histogram over Pow2Buckets.

func TestTimerQuantilePins(t *testing.T) {
	tm := newTimer()
	for d := 1; d <= 1024; d++ {
		tm.Observe(time.Duration(d))
	}
	if got := tm.Quantile(0.50); got != 512 {
		t.Fatalf("p50 = %v, want 512", got)
	}
	if got := tm.Quantile(0.99); got != 1013.76 {
		t.Fatalf("p99 = %v, want 1013.76", got)
	}
	if got := tm.Quantile(0); got != 1 {
		t.Fatalf("p0 = %v, want min 1", got)
	}
	if got := tm.Quantile(1); got != 1024 {
		t.Fatalf("p100 = %v, want max 1024", got)
	}
}

func TestHistogramQuantilePins(t *testing.T) {
	h := newHistogram(Pow2Buckets(11)) // bounds 1..1024
	for v := 1; v <= 1024; v++ {
		h.Observe(int64(v))
	}
	if got := h.quantile(0.50); got != 512 {
		t.Fatalf("p50 = %v, want 512", got)
	}
	if got := h.quantile(0.99); got != 1013.76 {
		t.Fatalf("p99 = %v, want 1013.76", got)
	}
}

func TestQuantileSingleValueExact(t *testing.T) {
	tm := newTimer()
	for i := 0; i < 5; i++ {
		tm.Observe(7 * time.Nanosecond)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := tm.Quantile(q); got != 7 {
			t.Fatalf("q%.2f of a constant distribution = %v, want 7", q, got)
		}
	}
	h := newHistogram(Pow2Buckets(8))
	h.Observe(100)
	if got := h.quantile(0.5); got != 100 {
		t.Fatalf("histogram single-value p50 = %v, want 100", got)
	}
}

func TestQuantileEmpty(t *testing.T) {
	if got := newTimer().Quantile(0.5); got != 0 {
		t.Fatalf("empty timer quantile = %v, want 0", got)
	}
	if got := newHistogram(Pow2Buckets(4)).quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
}

func TestQuantileSnapshotMatchesLive(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("q/latency")
	h := r.Histogram("q/sizes", Pow2Buckets(11))
	for v := 1; v <= 1024; v++ {
		tm.Observe(time.Duration(v))
		h.Observe(int64(v))
	}
	snap := r.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if live, frozen := tm.Quantile(q), snap.Timers["q/latency"].Quantile(q); live != frozen {
			t.Fatalf("timer q%.2f: live %v != snapshot %v", q, live, frozen)
		}
		if live, frozen := h.quantile(q), snap.Histograms["q/sizes"].Quantile(q); live != frozen {
			t.Fatalf("histogram q%.2f: live %v != snapshot %v", q, live, frozen)
		}
	}
}

func TestTimerMergePreservesBuckets(t *testing.T) {
	a, b := newTimer(), newTimer()
	for d := 1; d <= 512; d++ {
		a.Observe(time.Duration(d))
	}
	for d := 513; d <= 1024; d++ {
		b.Observe(time.Duration(d))
	}
	a.h.merge(&b.h)
	if a.Count() != 1024 {
		t.Fatalf("merged count = %d, want 1024", a.Count())
	}
	if got := a.Quantile(0.50); got != 512 {
		t.Fatalf("merged p50 = %v, want 512", got)
	}
	if got := a.Quantile(0.99); got != 1013.76 {
		t.Fatalf("merged p99 = %v, want 1013.76", got)
	}
}

// TestResetSnapshotConsistency pins the Reset/Snapshot interleaving fix:
// Reset takes the write lock, so a snapshot racing a reset sees either
// the full pre-reset state or the full post-reset state. Under the old
// read-lock Reset, counters were zeroed before timers, and a concurrent
// snapshot could report the counter already zeroed next to the timer
// still populated — the mixed state this test rejects. Each round races
// exactly one Reset against one Snapshot with no other writers, so
// all-or-nothing is the only correct outcome.
func TestResetSnapshotConsistency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rs/ops")
	tm := r.Timer("rs/latency")
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	for i := 0; i < rounds; i++ {
		c.Inc()
		tm.Observe(time.Nanosecond)
		var wg sync.WaitGroup
		var snap *Snapshot
		wg.Add(2)
		go func() { defer wg.Done(); r.Reset() }()
		go func() { defer wg.Done(); snap = r.Snapshot() }()
		wg.Wait()
		ops := snap.Counters["rs/ops"]
		lat := snap.Timers["rs/latency"].Count
		pre := ops == 1 && lat == 1
		post := ops == 0 && lat == 0
		if !pre && !post {
			t.Fatalf("round %d: snapshot saw counter=%d timer=%d — a mixed reset state", i, ops, lat)
		}
		r.Reset() // known-zero baseline for the next round
	}
}

// Reset zeroes every registered metric (buckets and extremes included)
// without unregistering anything, so tests can measure deltas; bound
// metric pointers stay valid. It takes the write lock so a concurrent
// Snapshot (read lock) observes either the pre-reset or the post-reset
// state, never a mix of the two (TestResetSnapshotConsistency).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
	for _, t := range r.timers {
		t.h.reset()
	}
}

// reset zeroes h's buckets, count and sum and empties its extremes.
func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
}
