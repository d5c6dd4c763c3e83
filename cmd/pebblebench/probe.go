package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"joinpebble/internal/obs"
)

// The host probe corrects the timings for the speed of the machine.
// On a shared host that speed drifts by a fifth or more over minutes, and
// every workload run in the same stretch is slow or fast together, so the
// drift, not pebbled, decided the spread of every timing across runs. The
// benchmark therefore times a fixed piece of CPU work of its own before
// each set-up round, before the first slice and after every slice. It
// scales a set-up round's time by refProbe / (the probe before it), and a
// slice's timings by refProbe / (the mean of the probes around it): the
// timings read as if they had been taken at the reference machine's
// usual speed. The probe uses only the standard library, so no change to
// the program can change its work, and pebbled is stopped while it runs,
// so nothing pebbled does in the background can slow it.
const (
	// refProbe is the probe's median time on the reference machine
	// described in README.md.
	refProbe = 13300 * time.Microsecond
	// probeReps is how many times one probe does its work; it reports the
	// fastest, which skips a stray garbage collection or interrupt.
	probeReps = 3
)

// probeSink keeps the probe's result alive, so the compiler cannot drop
// the work.
var probeSink [sha256.Size]byte

// probeWork is the fixed work: random fill, map updates, a sort and a
// hash over 60000 numbers, the mix of allocation, hashing and sorting a
// request to pebbled does.
func probeWork(seed int64) [sha256.Size]byte {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]int, 60000)
	for i := range xs {
		xs[i] = rng.Int()
	}
	counts := make(map[int]int, 1024)
	for i, x := range xs {
		counts[x%20000] += i
	}
	sort.Ints(xs)
	buf := make([]byte, 0, 4*len(xs)+8*len(counts))
	for _, x := range xs {
		buf = append(buf, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	buf = append(buf, byte(len(counts)))
	return sha256.Sum256(buf)
}

// probe does the fixed work on conns goroutines at once, probeReps times,
// and returns the fastest wall time.
func probe(conns int) time.Duration {
	runtime.GC()
	var best time.Duration
	sums := make([][sha256.Size]byte, conns)
	for r := 0; r < probeReps; r++ {
		start := obs.Now()
		var wg sync.WaitGroup
		for i := range sums {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sums[i] = probeWork(int64(i))
			}()
		}
		wg.Wait()
		if d := obs.Since(start); r == 0 || d < best {
			best = d
		}
	}
	probeSink = sums[0]
	return best
}

// hostScale returns refProbe over the median of probes: the factor that
// turns a time measured while the host ran at their speed into one at
// the reference speed (a rate is divided by it).
func hostScale(probes []time.Duration) float64 {
	ns := make([]float64, len(probes))
	for i, d := range probes {
		ns[i] = float64(d)
	}
	return float64(refProbe) / median(ns)
}
