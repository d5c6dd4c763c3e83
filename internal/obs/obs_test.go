package obs

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines; run
// with -race this also proves the increment path is data-race free.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test/hammer")
	const workers, perWorker = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramConcurrent checks that concurrent observations lose
// nothing: count, sum, extremes, and the bucket totals all agree.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test/hist", Pow2Buckets(10))
	const workers, perWorker = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(w*perWorker+i) % 2000)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	// Every worker observes each residue mod 2000 the same number of
	// times, so the sum is workers * perWorker/2000 * sum(0..1999).
	wantSum := int64(workers) * int64(perWorker/2000) * (1999 * 2000 / 2)
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %d, want %d", got, wantSum)
	}
	snap := r.Snapshot().Histograms["test/hist"]
	if snap.Min != 0 || snap.Max != 1999 {
		t.Fatalf("extremes = [%d, %d], want [0, 1999]", snap.Min, snap.Max)
	}
	var bucketTotal int64
	for _, b := range snap.Buckets {
		bucketTotal += b.N
	}
	if bucketTotal != snap.Count {
		t.Fatalf("buckets hold %d observations, count says %d", bucketTotal, snap.Count)
	}
}

// TestHistogramBucketBoundaries pins the "le" semantics: an observation
// lands in the first bucket whose bound it does not exceed.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test/bounds", []int64{1, 2, 4})
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["test/bounds"]
	want := []int64{2, 1, 2, 2} // le 1: {0,1}; le 2: {2}; le 4: {3,4}; overflow: {5,100}
	for i, n := range want {
		if snap.Buckets[i].N != n {
			t.Fatalf("bucket %d = %d, want %d (snapshot %+v)", i, snap.Buckets[i].N, n, snap)
		}
	}
	if snap.Buckets[3].LE != math.MaxInt64 {
		t.Fatalf("overflow bucket LE = %d, want MaxInt64", snap.Buckets[3].LE)
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("test/timer")
	tm.Observe(10 * time.Millisecond)
	tm.Observe(30 * time.Millisecond)
	if tm.Count() != 2 || tm.Total() != 40*time.Millisecond {
		t.Fatalf("timer count=%d total=%v", tm.Count(), tm.Total())
	}
	snap := r.Snapshot().Timers["test/timer"]
	if snap.MinNs != int64(10*time.Millisecond) || snap.MaxNs != int64(30*time.Millisecond) {
		t.Fatalf("extremes = [%d, %d]", snap.MinNs, snap.MaxNs)
	}
	if snap.AvgNs != float64(20*time.Millisecond) {
		t.Fatalf("avg = %v", snap.AvgNs)
	}
}

// TestTimerSnapshotJSON pins a timer's snapshot encoding: the non-empty
// prefix of the power-of-two buckets (LE 1 through 1024 for these three
// durations), zero-count buckets inside it included.
func TestTimerSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("test/timer-json")
	for _, d := range []time.Duration{1, 3, 1000} {
		tm.Observe(d)
	}
	got, err := json.Marshal(r.Snapshot().Timers["test/timer-json"])
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"count":3,"total_ns":1004,"avg_ns":334.6666666666667,"min_ns":1,"max_ns":1000,` +
		`"buckets":[{"le":1,"n":1},{"le":2,"n":0},{"le":4,"n":1},{"le":8,"n":0},{"le":16,"n":0},` +
		`{"le":32,"n":0},{"le":64,"n":0},{"le":128,"n":0},{"le":256,"n":0},{"le":512,"n":0},{"le":1024,"n":1}]}`
	if string(got) != want {
		t.Fatalf("timer snapshot JSON =\n%s\nwant\n%s", got, want)
	}
}

var timerSink *Timer

// TestNewTimerOneAlloc pins a timer to one allocation: the bucket array
// lives inside the Timer and the layout is shared.
func TestNewTimerOneAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { timerSink = newTimer() }); n != 1 {
		t.Fatalf("newTimer allocates %v times, want 1", n)
	}
}

// TestTimerConcurrent exists for the -race run: many goroutines feeding
// one timer.
func TestTimerConcurrent(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("test/timer-hammer")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tm.Observe(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if tm.Count() != 16000 {
		t.Fatalf("count = %d, want 16000", tm.Count())
	}
}

// TestRegistryGetOrCreate checks lookup stability: the same name yields
// the same metric, also under concurrent first access.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	ptrs := make([]*Counter, 8)
	var wg sync.WaitGroup
	for i := range ptrs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ptrs[i] = r.Counter("test/shared")
		}()
	}
	wg.Wait()
	for i := 1; i < len(ptrs); i++ {
		if ptrs[i] != ptrs[0] {
			t.Fatal("concurrent Counter calls returned distinct counters")
		}
	}
	if r.Histogram("test/h", Pow2Buckets(4)) != r.Histogram("test/h", Pow2Buckets(9)) {
		t.Fatal("Histogram with same name returned distinct histograms")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a/count").Add(7)
	r.Histogram("a/hist", []int64{1, 10}).Observe(5)
	r.Timer("a/time").Observe(time.Second)
	data, err := json.Marshal(r) // Registry marshals its snapshot
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a/count"] != 7 {
		t.Fatalf("counter lost: %+v", back)
	}
	if h := back.Histograms["a/hist"]; h.Count != 1 || h.Sum != 5 {
		t.Fatalf("histogram lost: %+v", h)
	}
	if tm := back.Timers["a/time"]; tm.Count != 1 || tm.TotalNs != int64(time.Second) {
		t.Fatalf("timer lost: %+v", tm)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	h := r.Histogram("y", []int64{10})
	tm := r.Timer("z")
	c.Add(5)
	h.Observe(3)
	tm.Observe(time.Millisecond)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || tm.Count() != 0 {
		t.Fatal("Reset left residue")
	}
	// Metrics stay bound and usable after reset.
	h.Observe(4)
	snap := r.Snapshot().Histograms["y"]
	if snap.Count != 1 || snap.Min != 4 || snap.Max != 4 {
		t.Fatalf("post-reset observe mangled: %+v", snap)
	}
}

func TestWriteJSONFileAtomic(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	r.Counter("w").Add(3)
	path := filepath.Join(dir, "m.json")
	if err := r.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("written snapshot does not parse: %v", err)
	}
	if snap.Counters["w"] != 3 {
		t.Fatalf("snapshot content wrong: %+v", snap)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }
