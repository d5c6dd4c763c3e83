package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDisarmedFireIsNil(t *testing.T) {
	if err := Fire(context.Background(), "nowhere"); err != nil {
		t.Fatalf("disarmed Fire returned %v", err)
	}
	if Armed() {
		t.Fatal("Armed() true with nothing armed")
	}
}

func TestErrorInjection(t *testing.T) {
	defer Reset()
	sentinel := errors.New("sentinel")
	Arm("site/a", Fault{Err: fmt.Errorf("%w: injected", sentinel)})
	err := Fire(context.Background(), "site/a")
	if !errors.Is(err, sentinel) {
		t.Fatalf("injected error %v does not match sentinel", err)
	}
	// Another site stays clean.
	if err := Fire(context.Background(), "site/b"); err != nil {
		t.Fatalf("unarmed sibling site returned %v", err)
	}
	Disarm("site/a")
	if err := Fire(context.Background(), "site/a"); err != nil {
		t.Fatalf("disarmed site returned %v", err)
	}
	if Armed() {
		t.Fatal("Armed() true after Disarm")
	}
}

func TestPanicInjection(t *testing.T) {
	defer Reset()
	Arm("site/panic", Fault{Panic: "boom"})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	Fire(context.Background(), "site/panic")
	t.Fatal("Fire did not panic")
}

func TestDelayInjection(t *testing.T) {
	defer Reset()
	Arm("site/slow", Fault{Delay: 30 * time.Millisecond})
	start := time.Now()
	if err := Fire(context.Background(), "site/slow"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("Fire returned after %v, want >= 30ms", d)
	}
}

// TestSkipAndTimes pins the deterministic activation schedule: Skip
// suppresses the leading hits, Times caps the activations after that.
func TestSkipAndTimes(t *testing.T) {
	defer Reset()
	sentinel := errors.New("sentinel")
	Arm("site/sched", Fault{Err: sentinel, Skip: 2, Times: 2})
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, Fire(context.Background(), "site/sched") != nil)
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d fired=%v, want %v (schedule %v)", i, got[i], want[i], got)
		}
	}
	if h := Hits("site/sched"); h != 6 {
		t.Fatalf("Hits = %d, want 6", h)
	}
	if f := Fired("site/sched"); f != 2 {
		t.Fatalf("Fired = %d, want 2", f)
	}
}

// TestZeroFaultCountsHits: an inert fault is a pure probe asserting the
// site is reached.
func TestZeroFaultCountsHits(t *testing.T) {
	defer Reset()
	Arm("site/probe", Fault{})
	for i := 0; i < 3; i++ {
		if err := Fire(context.Background(), "site/probe"); err != nil {
			t.Fatal(err)
		}
	}
	if h := Hits("site/probe"); h != 3 {
		t.Fatalf("Hits = %d, want 3", h)
	}
}

// TestConcurrentFire hammers an armed site from many goroutines under
// -race: the schedule arithmetic must stay consistent (exactly Times
// activations) no matter the interleaving.
func TestConcurrentFire(t *testing.T) {
	defer Reset()
	sentinel := errors.New("sentinel")
	Arm("site/conc", Fault{Err: sentinel, Times: 5})
	var wg sync.WaitGroup
	var fired atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if Fire(context.Background(), "site/conc") != nil {
					fired.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := fired.Load(); n != 5 {
		t.Fatalf("%d activations fired, want exactly 5", n)
	}
	if h := Hits("site/conc"); h != 800 {
		t.Fatalf("Hits = %d, want 800", h)
	}
}

// BenchmarkDisarmedFire measures the cost every hot-path site pays in
// production: one atomic load. The bench harness pins this as the
// faultinject/disarmed-fire series.
func BenchmarkDisarmedFire(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if err := Fire(ctx, "solver/component"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDelaySelectsOnContext(t *testing.T) {
	defer Reset()
	// An injected delay far longer than the test budget must be cut
	// short the moment the request context is cancelled: the regression
	// this pins is a Delay fault holding a cancelled request's handler
	// for the full injected duration.
	Arm("site/delay", Fault{Delay: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Fire(ctx, "site/delay") }()
	time.Sleep(10 * time.Millisecond) // let the goroutine enter the delay
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Fire returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fire still blocked long after cancellation; delay is not selecting on ctx")
	}
	if got := Fired("site/delay"); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
}

func TestDelayCompletesUnderLiveContext(t *testing.T) {
	defer Reset()
	Arm("site/delay", Fault{Delay: time.Millisecond, Err: errors.New("after delay")})
	if err := Fire(context.Background(), "site/delay"); err == nil || err.Error() != "after delay" {
		t.Fatalf("Fire = %v, want the armed error after the delay", err)
	}
}
