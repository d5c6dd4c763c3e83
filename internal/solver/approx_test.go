package solver

import (
	"math"
	"testing"
	"time"

	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
)

// TestApprox125Linear checks Theorem 3.1's linear running time: the
// least-squares slope of log(partition time) against log(m) on spiders
// with m = 500..8000 must stay below 1.3. Each point is the fastest of
// five runs. A spider's hub makes L(G) contain a clique on half its
// vertices, so any per-strip walk over the line graph shows up as a slope
// near 3.
func TestApprox125Linear(t *testing.T) {
	if raceEnabled {
		t.Skip("timings under the race detector do not scale like the uninstrumented code")
	}
	sizes := []int{500, 1000, 2000, 4000, 8000}
	ns := make([]float64, len(sizes))
	for i, m := range sizes {
		cg := family.Spider(m / 2).Graph()
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 5; rep++ {
			start := obs.Now()
			if _, _, err := pathPartition(cg, false); err != nil {
				t.Fatalf("m=%d: %v", m, err)
			}
			best = min(best, obs.Since(start))
		}
		ns[i] = float64(best.Nanoseconds())
	}
	slope := logLogSlope(sizes, ns)
	t.Logf("partition ns at m=%v: %.0f; log-log slope %.2f", sizes, ns, slope)
	if slope >= 1.3 {
		t.Fatalf("log-log slope %.2f >= 1.3: path partition is not linear in m", slope)
	}
}

// TestPathPartitionRejectsDisconnected: the DFS reaches only the root's
// component, so a disconnected line graph is an error, not a partition
// that silently misses edges.
func TestPathPartitionRejectsDisconnected(t *testing.T) {
	g := graph.New(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if _, pieces, err := pathPartition(g, false); err == nil {
		t.Fatalf("disconnected graph partitioned into %v", pieces)
	}
}

// logLogSlope is the least-squares slope of log(y) against log(x).
func logLogSlope(x []int, y []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range x {
		lx, ly := math.Log(float64(x[i])), math.Log(y[i])
		sx, sy, sxx, sxy = sx+lx, sy+ly, sxx+lx*lx, sxy+lx*ly
	}
	n := float64(len(x))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
