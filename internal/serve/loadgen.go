package serve

// The open-loop load generator cmd/loadgen runs: arrivals follow a
// Poisson process at a fixed rate, independent of how fast the server
// answers — the generator never waits for a response before sending the
// next request, so a saturated server sees real queue pressure instead
// of the closed-loop self-throttling that hides overload. Instance
// sizes are heavy-tailed (bounded Pareto), families are mixed by
// weight, and everything derives from one seed, so a run is replayable.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"joinpebble/internal/obs"
)

// loadLatency is the local metric the generator accumulates successful
// request latencies into (its own registry: client-side measurements
// must not mix into the server's metrics when both run in one test
// process).
const loadLatency = "loadgen/latency"

// LoadMix is one predicate family's share of the generated traffic.
type LoadMix struct {
	Family string
	Weight float64
	// Skew is passed through to SolveRequest.Skew.
	Skew float64
}

// DefaultMix is the standard traffic blend: mostly equijoins (skewed),
// the rest containment and spatial.
func DefaultMix() []LoadMix {
	return []LoadMix{
		{Family: "equijoin", Weight: 0.5, Skew: 1.2},
		{Family: "containment", Weight: 0.3},
		{Family: "spatial", Weight: 0.2, Skew: 3},
	}
}

// LoadConfig configures one load run; zero values take the documented
// defaults.
type LoadConfig struct {
	// Base is the service base URL.
	Base string
	// Rate is the arrival rate in requests/second; 0 means 50.
	Rate float64
	// Duration is how long arrivals are generated; 0 means 5s (requests
	// in flight at the end are still awaited and counted).
	Duration time.Duration
	// Seed drives arrivals, sizes, families, and per-request workload
	// seeds; the same seed replays the same request stream.
	Seed int64
	// BudgetMS is the per-request solve budget sent to the server;
	// 0 sends none (server cap applies).
	BudgetMS int64
	// MinSize/MaxSize bound the per-side relation sizes; the draw is a
	// bounded Pareto with tail index Alpha. Defaults 8/512, Alpha 1.5 —
	// most requests are small, the tail is fat.
	MinSize, MaxSize int
	Alpha            float64
	// Client, when non-nil, overrides the default retrying client
	// (tests inject one with a tighter policy).
	Client *Client
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Rate <= 0 {
		c.Rate = 50
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.MinSize <= 0 {
		c.MinSize = 8
	}
	if c.MaxSize < c.MinSize {
		c.MaxSize = 512
		if c.MaxSize < c.MinSize {
			c.MaxSize = c.MinSize
		}
	}
	if c.Alpha <= 0 {
		c.Alpha = 1.5
	}
	return c
}

// LoadReport is the outcome of one load run. Latency quantiles cover
// successful (admitted, completed) requests only — rejected requests
// answer in microseconds and would drag the percentiles down.
type LoadReport struct {
	Requests int64 `json:"requests"`
	OK       int64 `json:"ok"`
	Degraded int64 `json:"degraded"`
	Cached   int64 `json:"cached"`
	// Rejected counts requests that exhausted their retries on 429.
	Rejected int64 `json:"rejected"`
	// Retries counts individual retry attempts across all requests.
	Retries  int64 `json:"retries"`
	Canceled int64 `json:"canceled"`
	Errors   int64 `json:"errors"`

	P50NS         float64 `json:"p50_ns"`
	P99NS         float64 `json:"p99_ns"`
	P999NS        float64 `json:"p999_ns"`
	MeanNS        float64 `json:"mean_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`
	ElapsedNS     int64   `json:"elapsed_ns"`
}

// RunLoad drives one open-loop load run against cfg.Base and blocks
// until every spawned request resolved. Canceling ctx stops new
// arrivals and cancels requests still in flight.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	client := cfg.Client
	if client == nil {
		client = NewClient(cfg.Base, cfg.Seed)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	lat := obs.NewRegistry().Timer(loadLatency)

	var (
		wg  sync.WaitGroup
		rep LoadReport
		ok, degraded, cached, rejected, retries,
		canceled, errs atomic.Int64
	)
	start := obs.Now()
	deadline := start.Add(cfg.Duration)
	for obs.Now().Before(deadline) && ctx.Err() == nil {
		// Poisson arrivals: exponential inter-arrival gaps at the target
		// rate, slept off before each spawn.
		gap := time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		if !sleepCtx(ctx, gap) {
			break
		}
		req := cfg.genRequest(rng)
		rep.Requests++
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := obs.Now()
			resp, st, err := client.Solve(ctx, req)
			retries.Add(int64(st.Attempts - 1))
			if err != nil {
				var se *StatusError
				switch {
				case errors.As(err, &se) && se.Status == 429:
					rejected.Add(1)
				case ctx.Err() != nil:
					canceled.Add(1)
				default:
					errs.Add(1)
				}
				return
			}
			lat.Observe(obs.Since(t0))
			ok.Add(1)
			if resp.Degraded {
				degraded.Add(1)
			}
			if resp.Cached {
				cached.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := obs.Since(start)

	rep.OK = ok.Load()
	rep.Degraded = degraded.Load()
	rep.Cached = cached.Load()
	rep.Rejected = rejected.Load()
	rep.Retries = retries.Load()
	rep.Canceled = canceled.Load()
	rep.Errors = errs.Load()
	rep.P50NS = lat.Quantile(0.50)
	rep.P99NS = lat.Quantile(0.99)
	rep.P999NS = lat.Quantile(0.999)
	if n := lat.Count(); n > 0 {
		rep.MeanNS = float64(lat.Total()) / float64(n)
	}
	rep.ElapsedNS = int64(elapsed)
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.OK) / elapsed.Seconds()
	}
	return &rep, ctx.Err()
}

// genRequest draws one request: family by DefaultMix weight, sizes from
// the bounded Pareto tail, a fresh workload seed.
func (c LoadConfig) genRequest(rng *rand.Rand) *SolveRequest {
	mixes := DefaultMix()
	var total float64
	for _, m := range mixes {
		total += m.Weight
	}
	pick := rng.Float64() * total
	mix := mixes[len(mixes)-1]
	for _, m := range mixes {
		if pick < m.Weight {
			mix = m
			break
		}
		pick -= m.Weight
	}
	return &SolveRequest{
		Family:   mix.Family,
		Seed:     rng.Int63(),
		Left:     c.paretoSize(rng),
		Right:    c.paretoSize(rng),
		Skew:     mix.Skew,
		BudgetMS: c.BudgetMS,
	}
}

// paretoSize draws a bounded-Pareto size in [MinSize, MaxSize]: density
// ∝ x^-(alpha+1), so the bulk sits at MinSize with a heavy tail toward
// MaxSize.
func (c LoadConfig) paretoSize(rng *rand.Rand) int {
	u := rng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	size := int(float64(c.MinSize) * math.Pow(u, -1/c.Alpha))
	if size > c.MaxSize {
		size = c.MaxSize
	}
	if size < c.MinSize {
		size = c.MinSize
	}
	return size
}

// sleepCtx sleeps d or until ctx is done; false means the run is over.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
