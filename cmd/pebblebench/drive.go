package main

import (
	"context"
	"math"
	"net/http"
	"sync"
	"time"

	"joinpebble/internal/obs"
	"joinpebble/internal/serve"
)

// requestTimeout bounds one exchange. pebbled caps a solve at 5s, but a
// solver that only checks its deadline between components can overrun
// it; the bound exists to end a hung run, not to judge latency.
const requestTimeout = time.Minute

// newClient returns a /v1 client that makes exactly one try per request
// (a 429 or 503 is a failure, not something to hide behind a retry)
// over at most conns connections.
func newClient(base string, conns int) *serve.Client {
	return &serve.Client{
		Base:        base,
		MaxAttempts: 1,
		HTTP: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
}

// sample is one request's outcome.
type sample struct {
	req  serve.SolveRequest
	resp *serve.SolveResponse // nil when the request failed
	err  error                // transport error, non-200, or failed check
	// lat is the latency: from send in the closed phase, from the due
	// time in the open phase.
	lat time.Duration
	// lag is how late the generator released the request and wait how
	// long it then queued for a free connection (open phase only).
	lag, wait time.Duration
}

func (s *sample) ok() bool { return s.err == nil }

// latencyMS is the sample's latency for percentiles: +Inf when it
// failed.
func (s *sample) latencyMS() float64 {
	if !s.ok() {
		return math.Inf(1)
	}
	return ms(s.lat)
}

// exchange sends one request and validates the answer.
func exchange(ctx context.Context, c *serve.Client, chk *checker, req serve.SolveRequest) sample {
	s := sample{req: req}
	resp, _, err := c.Solve(ctx, &req)
	switch {
	case err != nil:
		s.err = err
	default:
		s.resp = resp
		s.err = chk.check(&req, resp)
	}
	return s
}

// phase is one phase's samples and wall time.
type phase struct {
	samples []sample
	wall    time.Duration
	// scale brings a slice's timings to the reference machine's speed
	// (see hostScale); it is 0 for a pooled phase.
	scale float64
}

func (p *phase) failed() int {
	n := 0
	for i := range p.samples {
		if !p.samples[i].ok() {
			n++
		}
	}
	return n
}

// pool merges slices into one phase.
func pool(slices []phase) phase {
	var p phase
	for _, s := range slices {
		p.samples = append(p.samples, s.samples...)
		p.wall += s.wall
	}
	return p
}

// latencies returns every sample's latency in ms, failures as +Inf.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.samples))
	for i := range p.samples {
		out[i] = p.samples[i].latencyMS()
	}
	return out
}

// closedLoop runs conns clients that each send their next request as
// soon as the previous one is answered, until next reports there is no
// more. next is called under a lock, so it hands out requests in order.
func closedLoop(ctx context.Context, c *serve.Client, chk *checker, conns int, next func() (serve.SolveRequest, bool)) phase {
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	take := func() (serve.SolveRequest, bool) {
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() != nil {
			return serve.SolveRequest{}, false
		}
		return next()
	}
	start := obs.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				req, ok := take()
				if !ok {
					return
				}
				t0 := obs.Now()
				s := exchange(ctx, c, chk, req)
				s.lat = obs.Since(t0)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return phase{samples: samples, wall: obs.Since(start)}
}

// until hands out st's requests until the deadline passes or limit were
// handed out; a zero deadline or limit does not bound.
func until(st *stream, deadline time.Time, limit int) func() (serve.SolveRequest, bool) {
	sent := 0
	return func() (serve.SolveRequest, bool) {
		if (limit > 0 && sent >= limit) || (!deadline.IsZero() && !obs.Now().Before(deadline)) {
			return serve.SolveRequest{}, false
		}
		sent++
		return st.next(), true
	}
}

// each hands out reqs once, in order.
func each(reqs []serve.SolveRequest) func() (serve.SolveRequest, bool) {
	i := 0
	return func() (serve.SolveRequest, bool) {
		if i == len(reqs) {
			return serve.SolveRequest{}, false
		}
		i++
		return reqs[i-1], true
	}
}

// openLoop releases reqs[i] at start+due[i], whatever the server is
// doing, and serves them from conns worker connections in arrival order.
// A request's latency runs from its due time, so the time it waits for
// a free connection behind a slow answer counts as queueing.
func openLoop(ctx context.Context, c *serve.Client, chk *checker, conns int, reqs []serve.SolveRequest, due []time.Duration) phase {
	samples := make([]sample, len(reqs))
	dueAt := make([]time.Time, len(reqs))
	// Sized to the number of arrivals, so the generator never blocks on
	// a slow server and its lag measures only the generator.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				pickup := obs.Now()
				s := exchange(ctx, c, chk, reqs[k])
				s.lat = obs.Since(dueAt[k])
				s.wait = pickup.Sub(dueAt[k])
				s.lag = samples[k].lag
				samples[k] = s
			}
		}()
	}
	start := obs.Now()
	sent := 0
	for k := range reqs {
		at := start.Add(due[k])
		if err := pause(ctx, obs.Until(at)); err != nil {
			break
		}
		dueAt[k] = at
		samples[k].lag = obs.Since(at)
		queue <- k
		sent++
	}
	close(queue)
	wg.Wait()
	return phase{samples: samples[:sent], wall: obs.Since(start)}
}
