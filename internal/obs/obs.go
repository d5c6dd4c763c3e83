// Package obs is the dependency-free observability layer of the
// pebble-game stack: atomic counters, fixed-bucket histograms, timers
// (histograms of nanoseconds over one shared layout), and a hierarchical
// span tracer (see trace.go), all collected in a Registry that snapshots
// to JSON.
//
// Design constraints, in order:
//
//  1. Free when off. Spans record only inside a request scope, so an
//     unscoped span site costs a context lookup and a nil check.
//     Counters and timers are always on, but instrumentation sites
//     accumulate into locals inside hot loops and flush once per run, so
//     the steady-state cost is a handful of uncontended atomic adds per
//     operation — invisible next to the millisecond-scale solves they
//     account for.
//  2. No dependencies. This package imports only the standard library
//     (and nothing from internal/), so every layer of the stack can
//     import it without cycles. HTTP exposure (expvar, net/http/pprof)
//     lives in the obshttp subpackage to keep binaries that never serve
//     metrics free of net/http.
//  3. Stable names. Metric names are slash-separated paths
//     ("solver/phase/scheme_build"); snapshots key on them, so
//     renaming a metric silently breaks dashboards and the CI smoke
//     assertions — treat names like the bench series names in regress.go.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// casMin lowers a to v if v is smaller (CAS loop, lock-free).
func casMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// casMax raises a to v if v is larger (CAS loop, lock-free).
func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be 0; negative n is allowed but makes the counter a
// gauge — prefer separate counters for up and down).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram counts observations into a fixed bucket layout chosen at
// construction. Bucket i counts observations v with v <= Bounds[i]
// (first i that satisfies it); one implicit overflow bucket catches the
// rest. Sum, Count, Min and Max are tracked exactly, so totals derived
// from a histogram match the individual observations — the property the
// E15 consistency test leans on. A layout is never written after
// construction, so histograms may share one bounds slice.
type Histogram struct {
	bounds     []int64
	buckets    []atomic.Int64 // len(bounds)+1; last is overflow
	count, sum atomic.Int64
	min, max   atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	slices.Sort(b)
	h := &Histogram{}
	h.init(b, make([]atomic.Int64, len(b)+1))
	return h
}

// init gives h the sorted layout bounds, counted into buckets (one more
// than bounds), and empty extremes.
func (h *Histogram) init(bounds []int64, buckets []atomic.Int64) {
	h.bounds, h.buckets = bounds, buckets
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
}

// Pow2Buckets returns the exponential layout [1, 2, 4, ..., 2^(n-1)] —
// the default for count-like quantities (pebbling costs, page fetches).
func Pow2Buckets(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 << i
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i, _ := slices.BinarySearch(h.bounds, v) // the first i with v <= bounds[i]
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	casMin(&h.min, v)
	casMax(&h.max, v)
}

// bucketList materializes the first n bucket counts as a snapshot slice.
func (h *Histogram) bucketList(n int) []Bucket {
	out := make([]Bucket, n)
	for i := range out {
		le := int64(math.MaxInt64)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		out[i] = Bucket{LE: le, N: h.buckets[i].Load()}
	}
	return out
}

// quantile estimates the q-quantile (q in [0, 1]) of the observed values
// by linear interpolation inside the covering bucket, clamped to the
// exact [min, max] extremes. With no observations it returns 0.
func (h *Histogram) quantile(q float64) float64 {
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	return quantileFromBuckets(h.bucketList(len(h.buckets)), count, h.min.Load(), h.max.Load(), q)
}

// merge folds src into h bucket by bucket. src has h's layout, because a
// scope-side histogram is bound to its global's bounds (HistogramVar.In)
// and every Timer shares timerBounds; scope rollup is the caller, so src
// is quiescent.
func (h *Histogram) merge(src *Histogram) {
	n := src.count.Load()
	if n == 0 {
		return
	}
	for i := range src.buckets {
		if v := src.buckets[i].Load(); v != 0 {
			h.buckets[i].Add(v)
		}
	}
	h.count.Add(n)
	h.sum.Add(src.sum.Load())
	casMin(&h.min, src.min.Load())
	casMax(&h.max, src.max.Load())
}

// quantileFromBuckets interpolates the q-quantile from cumulative bucket
// counts (shared by live metrics and their snapshots). Buckets must be in
// ascending LE order and complete — zero-count buckets included — so each
// bucket's lower edge is the previous bound. min/max tighten the first
// and last covering buckets and clamp the result, which makes single-value
// distributions exact.
func quantileFromBuckets(buckets []Bucket, count, min, max int64, q float64) float64 {
	if count <= 0 {
		return 0
	}
	if q <= 0 {
		return float64(min)
	}
	if q >= 1 {
		return float64(max)
	}
	rank := q * float64(count)
	var cum int64
	lowEdge := float64(min)
	for _, b := range buckets {
		if b.N > 0 {
			hi := float64(b.LE)
			if float64(max) < hi {
				hi = float64(max)
			}
			if lowEdge > hi {
				lowEdge = hi
			}
			if rank <= float64(cum+b.N) {
				v := lowEdge + (hi-lowEdge)*(rank-float64(cum))/float64(b.N)
				if v < float64(min) {
					v = float64(min)
				}
				if v > float64(max) {
					v = float64(max)
				}
				return v
			}
			cum += b.N
		}
		if e := float64(b.LE); e > lowEdge {
			lowEdge = e
		}
		if lowEdge > float64(max) {
			lowEdge = float64(max)
		}
	}
	return float64(max) // floating-point slack pushed rank past the last bucket
}

// timerBounds is the one layout every Timer shares: bucket i counts
// durations d with d <= 2^i nanoseconds, and the overflow bucket catches
// the rest. 2^39 ns ≈ 9.2 minutes, far beyond any solve this repo times,
// so the overflow bucket stays empty in practice.
var timerBounds = Pow2Buckets(40)

// Timer accumulates durations of a repeated operation: a Histogram of
// nanoseconds over timerBounds, so it keeps the count, the total, the
// min/max extremes and the bucket distribution Quantile reads. Reading
// the clock is the caller's job (start := Now(); ...;
// t.Observe(Since(start))), so a Timer itself never syscalls.
type Timer struct {
	h       Histogram
	buckets [41]atomic.Int64 // h's buckets: one per timerBounds entry, then overflow
}

func newTimer() *Timer {
	t := &Timer{}
	t.h.init(timerBounds, t.buckets[:len(timerBounds)+1])
	return t
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) { t.h.Observe(int64(d)) }

// Count returns the number of recorded durations.
func (t *Timer) Count() int64 { return t.h.count.Load() }

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.h.sum.Load()) }

// Quantile estimates the q-quantile of the recorded durations in
// nanoseconds, interpolated inside the power-of-two buckets and clamped
// to the exact [min, max] extremes. With no observations it returns 0.
func (t *Timer) Quantile(q float64) float64 { return t.h.quantile(q) }

// Registry is a namespace of metrics. The zero value is not usable; use
// NewRegistry or the package-level Default. Lookup methods get-or-create,
// so instrumentation sites bind their metric once in a package var and
// pay no map lookup afterwards.
type Registry struct {
	//joinlint:lockrank obs-registry 30
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	timers   map[string]*Timer
}

// Default is the process-wide registry every internal package records
// into. The cmd tools snapshot it for -metrics and publish it on expvar
// for -pprof.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the named counter, creating it if absent.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds if absent. Bounds of an existing histogram are kept —
// the first registration wins — so call sites should agree on a layout.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = newHistogram(bounds)
	r.hists[name] = h
	return h
}

// Timer returns the named timer, creating it if absent.
func (r *Registry) Timer(name string) *Timer {
	r.mu.RLock()
	t, ok := r.timers[name]
	r.mu.RUnlock()
	if ok {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.timers[name]; ok {
		return t
	}
	t = newTimer()
	r.timers[name] = t
	return t
}

// addFrom merges every metric of src into r by addition: counters add
// their values, histograms and timers merge counts, sums, extremes and
// buckets. Scope rollup is the only caller — src is a closed scope's
// quiescent child registry, so reading it metric-by-metric is consistent
// enough.
//
// src's maps are snapshotted under its read lock and merged after the
// lock is released: Counter/Histogram/Timer take r.mu, and r and src
// share the same lock identity (both are Registries), so merging while
// holding src.mu would nest Registry.mu inside Registry.mu — the exact
// self-deadlock shape the lockorder analyzer rejects (and a real one
// whenever a rollup ever targeted the source registry).
func (r *Registry) addFrom(src *Registry) {
	src.mu.RLock()
	counters := make(map[string]*Counter, len(src.counters))
	for name, c := range src.counters {
		counters[name] = c
	}
	hists := make(map[string]*Histogram, len(src.hists))
	for name, h := range src.hists {
		hists[name] = h
	}
	timers := make(map[string]*Timer, len(src.timers))
	for name, t := range src.timers {
		timers[name] = t
	}
	src.mu.RUnlock()

	for name, c := range counters {
		if v := c.Value(); v != 0 {
			r.Counter(name).Add(v)
		}
	}
	for name, h := range hists {
		r.Histogram(name, h.bounds).merge(h)
	}
	for name, t := range timers {
		r.Timer(name).h.merge(&t.h)
	}
}

// Bucket is one histogram bucket in a snapshot: N observations with
// value <= LE (the overflow bucket has LE = math.MaxInt64).
type Bucket struct {
	LE int64 `json:"le"`
	N  int64 `json:"n"`
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets"`
}

// Quantile estimates the q-quantile of the frozen histogram, with the
// same interpolation as a live histogram or Timer.Quantile.
func (hs HistogramSnapshot) Quantile(q float64) float64 {
	return quantileFromBuckets(hs.Buckets, hs.Count, hs.Min, hs.Max, q)
}

// TimerSnapshot is the frozen state of one timer, in nanoseconds.
// Buckets is the non-empty prefix of the power-of-two duration
// distribution; readers of older snapshots see it absent.
type TimerSnapshot struct {
	Count   int64    `json:"count"`
	TotalNs int64    `json:"total_ns"`
	AvgNs   float64  `json:"avg_ns"`
	MinNs   int64    `json:"min_ns"`
	MaxNs   int64    `json:"max_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile in nanoseconds of the frozen timer.
// Snapshots without buckets (older files) fall back to the average.
func (ts TimerSnapshot) Quantile(q float64) float64 {
	if len(ts.Buckets) == 0 {
		return ts.AvgNs
	}
	return quantileFromBuckets(ts.Buckets, ts.Count, ts.MinNs, ts.MaxNs, q)
}

// Snapshot is a point-in-time copy of a registry, shaped for JSON: maps
// keyed by metric name (encoding/json emits map keys sorted, so output
// is deterministic given deterministic values).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Timers     map[string]TimerSnapshot     `json:"timers"`
}

// Snapshot captures the current value of every registered metric.
// Individual metrics are read atomically; the snapshot as a whole is not
// a consistent cut if writers are concurrent, which is fine for the
// monotone quantities recorded here.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
		Timers:     make(map[string]TimerSnapshot, len(r.timers)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:   h.count.Load(),
			Sum:     h.sum.Load(),
			Buckets: h.bucketList(len(h.buckets)),
		}
		if hs.Count > 0 {
			hs.Min = h.min.Load()
			hs.Max = h.max.Load()
		}
		s.Histograms[name] = hs
	}
	for name, t := range r.timers {
		ts := TimerSnapshot{Count: t.h.count.Load(), TotalNs: t.h.sum.Load()}
		if ts.Count > 0 {
			ts.AvgNs = float64(ts.TotalNs) / float64(ts.Count)
			ts.MinNs = t.h.min.Load()
			ts.MaxNs = t.h.max.Load()
			// Only the non-empty prefix: zero-count buckets inside it stay,
			// so quantile interpolation sees every lower edge.
			n := len(t.h.buckets)
			for n > 0 && t.h.buckets[n-1].Load() == 0 {
				n--
			}
			ts.Buckets = t.h.bucketList(n)
		}
		s.Timers[name] = ts
	}
	return s
}

// MarshalJSON renders the registry's current snapshot, which makes a
// *Registry usable directly as an expvar.Func payload.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// WriteJSONFile atomically writes the current snapshot as indented JSON
// to path (temp file + rename, same guarantee as bench.WriteReport).
func (r *Registry) WriteJSONFile(path string) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal snapshot: %w", err)
	}
	return AtomicWriteFile(path, append(data, '\n'), 0o644)
}

// AtomicWriteFile writes data to path via a temp file in the same
// directory and an atomic rename, so a crashed or interrupted writer can
// never leave a truncated file at path.
func AtomicWriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("obs: create temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("obs: write %s: %w", tmpName, err)
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return fmt.Errorf("obs: chmod %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("obs: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("obs: rename %s -> %s: %w", tmpName, path, err)
	}
	return nil
}
