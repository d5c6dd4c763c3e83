package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"joinpebble/internal/faultinject"
	"joinpebble/internal/obs"
	"joinpebble/internal/schemecache"
	"joinpebble/internal/testutil/leakcheck"
	"joinpebble/internal/tsp"
)

// startServer boots a server on a loopback ephemeral port and tears it
// down with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // second shutdowns are no-ops
	})
	return s
}

// post sends one request without retries and decodes the response into
// out when the status matches want.
func post(t *testing.T, url string, req any, wantStatus int, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // test helper
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d (body: %s)", url, resp.StatusCode, wantStatus, buf.String())
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s response: %v (body: %s)", url, err, buf.String())
		}
	}
	return resp
}

func TestSolveEndpoint(t *testing.T) {
	s := startServer(t, Config{})
	var resp SolveResponse
	post(t, s.URL()+"/v1/solve", &SolveRequest{Family: "equijoin", Seed: 7, Left: 32, Right: 32}, http.StatusOK, &resp)
	if resp.Family != "equijoin" {
		t.Errorf("family = %q, want equijoin", resp.Family)
	}
	if resp.Cost <= 0 || resp.Edges <= 0 {
		t.Errorf("degenerate result: cost=%d edges=%d", resp.Cost, resp.Edges)
	}
	if !resp.Perfect {
		t.Errorf("equijoin solve not perfect: quality=%q solver=%q", resp.Quality, resp.Solver)
	}
	if resp.Degraded {
		t.Errorf("unexpected degradation: %+v", resp.Attempts)
	}
}

func TestPlanAndAuditEndpoints(t *testing.T) {
	s := startServer(t, Config{})

	var plan PlanResponse
	post(t, s.URL()+"/v1/plan", &SolveRequest{Family: "equijoin", Seed: 1, Left: 16, Right: 16}, http.StatusOK, &plan)
	if plan.Route != "perfect" {
		t.Errorf("equijoin planned route = %q, want perfect", plan.Route)
	}
	if plan.Edges <= 0 {
		t.Errorf("plan reports %d edges", plan.Edges)
	}

	// A single-edge bipartite graph audited in its only emission order.
	var audit AuditResponse
	post(t, s.URL()+"/v1/audit", &SolveRequest{
		Family: "bipartite", Left: 1, Right: 1,
		Edges: [][2]int{{0, 0}},
		Pairs: [][2]int{{0, 0}},
	}, http.StatusOK, &audit)
	if !audit.Perfect || audit.Pairs != 1 {
		t.Errorf("audit = %+v, want perfect single pair", audit)
	}

	// A pair outside the 1x1 graph is a bad request, not a panic.
	for _, p := range [][2]int{{5, 0}, {0, -1}, {-1, 0}} {
		post(t, s.URL()+"/v1/audit", &SolveRequest{
			Family: "bipartite", Left: 1, Right: 1,
			Edges: [][2]int{{0, 0}},
			Pairs: [][2]int{p},
		}, http.StatusBadRequest, nil)
	}
}

// pathRequest is a bipartite path with m edges: one component, neither
// a matching nor complete bipartite for m >= 3, and a perfect walk, so
// the exact rung answers it without a search.
func pathRequest(m int, solverName string, strict bool) *SolveRequest {
	r := &SolveRequest{Family: "bipartite", Left: m/2 + 1, Right: (m + 1) / 2, Solver: solverName, Strict: strict}
	for k := 0; k < m; k++ {
		r.Edges = append(r.Edges, [2]int{(k + 1) / 2, k / 2})
	}
	return r
}

// TestSolverOverrides pins what an explicit /v1 solver may do. Exact
// runs up to tsp.MaxExactCities edges per component, the solvers that
// build a whole line graph are refused before the instance is built,
// and a strict run whose solver rejects the instance answers 422.
func TestSolverOverrides(t *testing.T) {
	s := startServer(t, Config{})
	limit := tsp.MaxExactCities
	t.Run("exact-at-limit", func(t *testing.T) {
		var r SolveResponse
		post(t, s.URL()+"/v1/solve", pathRequest(limit, "exact", true), http.StatusOK, &r)
		if r.Solver != "exact" || r.Degraded || r.EffectiveCost != limit {
			t.Errorf("solver %q, degraded %v, π %d; want exact at π = m = %d", r.Solver, r.Degraded, r.EffectiveCost, limit)
		}
	})
	overLimit := fmt.Sprintf("exact limit %d", limit)
	for _, name := range []string{"exact", "equijoin", "matching"} {
		t.Run("strict-"+name, func(t *testing.T) {
			var e ErrorResponse
			post(t, s.URL()+"/v1/solve", pathRequest(limit+1, name, true), http.StatusUnprocessableEntity, &e)
			if name == "exact" && !strings.Contains(e.Error, overLimit) {
				t.Errorf("error %q, want %q", e.Error, overLimit)
			}
		})
	}
	t.Run("exact-degrades", func(t *testing.T) {
		var r SolveResponse
		post(t, s.URL()+"/v1/solve", pathRequest(limit+1, "exact", false), http.StatusOK, &r)
		if !r.Degraded || r.Solver != "approx-1.25" || len(r.Attempts) == 0 || !strings.Contains(r.Attempts[0].Err, overLimit) {
			t.Errorf("solver %q, degraded %v, attempts %+v; want a fall from exact to approx-1.25", r.Solver, r.Degraded, r.Attempts)
		}
	})
	// exact-bnb names no solver: an unserved name is refused the same
	// way whether or not the CLIs know it.
	for _, name := range []string{"greedy", "greedy+2opt", "path-cover", "cycle-cover", "exact-bnb"} {
		t.Run("refused-"+name, func(t *testing.T) {
			for _, ep := range []string{"/v1/solve", "/v1/plan"} {
				post(t, s.URL()+ep, pathRequest(6, name, false), http.StatusBadRequest, nil)
			}
			// Refused before the instance is built: the error names the
			// solver, not the unknown family.
			var e ErrorResponse
			post(t, s.URL()+"/v1/solve", &SolveRequest{Family: "no-such-family", Left: 4, Right: 4, Solver: name}, http.StatusBadRequest, &e)
			if !strings.Contains(e.Error, "not served") {
				t.Errorf("error %q, want the solver refused first", e.Error)
			}
		})
	}
}

// TestAutoSolverRoutesLikeNoSolver pins that "solver":"auto" means "the
// engine routes": /v1/solve and /v1/plan answer exactly as they do with
// no solver. A path is not an equijoin graph, so one of
// tsp.MaxExactCities edges routes exact and one edge longer routes
// approx-1.25.
func TestAutoSolverRoutesLikeNoSolver(t *testing.T) {
	s := startServer(t, Config{})
	for _, tc := range []struct {
		m                      int
		route, solver, quality string
	}{
		{tsp.MaxExactCities, "exact", "exact", "optimal (exact search)"},
		{tsp.MaxExactCities + 1, "approx", "approx-1.25", "π ≤ 1.25m (Thm 3.1)"},
	} {
		var solves [2]SolveResponse
		var plans [2]PlanResponse
		for i, name := range []string{"", "auto"} {
			post(t, s.URL()+"/v1/solve", pathRequest(tc.m, name, false), http.StatusOK, &solves[i])
			post(t, s.URL()+"/v1/plan", pathRequest(tc.m, name, false), http.StatusOK, &plans[i])
			r := &solves[i]
			if r.Route != tc.route || r.Solver != tc.solver || r.Quality != tc.quality || r.Degraded {
				t.Errorf("m=%d solver %q: /v1/solve answered route %q, solver %q, reason %q, quality %q, degraded %v",
					tc.m, name, r.Route, r.Solver, r.Reason, r.Quality, r.Degraded)
			}
			if p := plans[i]; p.Route != tc.route || p.Solver != tc.solver {
				t.Errorf("m=%d solver %q: /v1/plan answered route %q, solver %q, reason %q", tc.m, name, p.Route, p.Solver, p.Reason)
			}
			// Wall times are the only fields allowed to differ.
			r.ElapsedNS = 0
			for j := range r.Attempts {
				r.Attempts[j].ElapsedNS = 0
			}
		}
		if !reflect.DeepEqual(solves[0], solves[1]) {
			t.Errorf("m=%d: /v1/solve with auto %+v, without a solver %+v", tc.m, solves[1], solves[0])
		}
		if plans[0] != plans[1] {
			t.Errorf("m=%d: /v1/plan with auto %+v, without a solver %+v", tc.m, plans[1], plans[0])
		}
	}
}

func TestBadRequests(t *testing.T) {
	s := startServer(t, Config{})

	post(t, s.URL()+"/v1/solve", &SolveRequest{Family: "no-such-family", Left: 4, Right: 4}, http.StatusBadRequest, nil)
	post(t, s.URL()+"/v1/solve", &SolveRequest{}, http.StatusBadRequest, nil)
	post(t, s.URL()+"/v1/solve", &SolveRequest{Family: "equijoin", Left: 1 << 20, Right: 4}, http.StatusBadRequest, nil)
	post(t, s.URL()+"/v1/audit", &SolveRequest{
		Family: "bipartite", Left: 1, Right: 1,
		Edges: [][2]int{{0, 0}},
		Pairs: [][2]int{{0, 0}, {0, 0}},
	}, http.StatusBadRequest, nil)

	resp, err := http.Get(s.URL() + "/v1/solve")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve = %d, want 405", resp.StatusCode)
	}
}

// TestBudgetClamp: a request's deadline is min(budget_ms, the server
// cap), with 0 meaning the cap, and no budget_ms overflows into a
// negative deadline that fails the solve.
func TestBudgetClamp(t *testing.T) {
	const limit = 5 * time.Second
	s := startServer(t, Config{RequestTimeout: limit})
	for _, c := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, limit},
		{250, 250 * time.Millisecond},
		{limit.Milliseconds() + 1, limit},
		{math.MaxInt64, limit},
	} {
		if got := requestBudget(c.ms, limit); got != c.want {
			t.Errorf("requestBudget(%d) = %v, want %v", c.ms, got, c.want)
		}
		post(t, s.URL()+"/v1/solve", &SolveRequest{Family: "equijoin", Seed: 7, Left: 64, Right: 64, BudgetMS: c.ms}, http.StatusOK, nil)
	}
}

// TestSpatialSkewCapped: a spatial request's skew is its cluster count,
// allocated before any size cap applies, so it is held to the relation
// cap; the serve mix's skew 3 stays valid.
func TestSpatialSkewCapped(t *testing.T) {
	s := startServer(t, Config{MaxRelation: 64})
	for _, c := range []struct {
		skew float64
		want int
	}{
		{3, http.StatusOK},
		{64, http.StatusOK},
		{65, http.StatusBadRequest},
		{math.MaxFloat64, http.StatusBadRequest},
	} {
		post(t, s.URL()+"/v1/solve", &SolveRequest{Family: "spatial", Seed: 1, Left: 8, Right: 8, Skew: c.skew}, c.want, nil)
	}
}

func TestHealthAndReady(t *testing.T) {
	s := startServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(s.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestOverloadReturns429 pins the admission contract: with one solve
// slot and no queue, a second concurrent request is answered 429 with
// Retry-After immediately — not queued until someone times out.
func TestOverloadReturns429(t *testing.T) {
	defer faultinject.Reset()
	s := startServer(t, Config{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 100 * time.Millisecond})

	// Hold the only slot with an injected in-handler delay.
	faultinject.Arm(SiteHandler, faultinject.Fault{Delay: 400 * time.Millisecond, Times: 1})
	firstDone := make(chan error, 1)
	go func() {
		var resp SolveResponse
		body, _ := json.Marshal(&SolveRequest{Family: "equijoin", Seed: 1, Left: 8, Right: 8})
		hresp, err := http.Post(s.URL()+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			firstDone <- err
			return
		}
		defer hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			firstDone <- fmt.Errorf("first request: status %d", hresp.StatusCode)
			return
		}
		firstDone <- json.NewDecoder(hresp.Body).Decode(&resp)
	}()
	waitFor(t, "first solve admitted", func() bool { return s.InFlight() == 1 })

	// The queue has one seat; fill it with a second held request so the
	// third is bounced instantly.
	second := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(&SolveRequest{Family: "equijoin", Seed: 2, Left: 8, Right: 8})
		hresp, err := http.Post(s.URL()+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			second <- -1
			return
		}
		hresp.Body.Close()
		second <- hresp.StatusCode
	}()
	waitFor(t, "second request queued", func() bool { return s.admission.Waiting() == 1 })

	start := obs.Now()
	var errResp ErrorResponse
	resp := post(t, s.URL()+"/v1/solve", &SolveRequest{Family: "equijoin", Seed: 3, Left: 8, Right: 8}, http.StatusTooManyRequests, &errResp)
	if d := obs.Since(start); d > 200*time.Millisecond {
		t.Errorf("overload answer took %v; rejection must be immediate", d)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if errResp.RetryAfterMS <= 0 {
		t.Errorf("429 body retry_after_ms = %d, want > 0", errResp.RetryAfterMS)
	}

	if err := <-firstDone; err != nil {
		t.Errorf("held request failed: %v", err)
	}
	// The queued request either won the freed slot (200) or timed out
	// its queue seat (429); both are valid admission outcomes.
	if code := <-second; code != http.StatusOK && code != http.StatusTooManyRequests {
		t.Errorf("queued request: status %d, want 200 or 429", code)
	}
}

// TestDeadlineBoundsDegradedSolve pins the budget contract: an injected
// stall on the planned rung is cut off by the rung's soft deadline and
// the request completes degraded, inside its budget, instead of hanging
// for the full stall.
func TestDeadlineBoundsDegradedSolve(t *testing.T) {
	defer faultinject.Reset()
	s := startServer(t, Config{RequestTimeout: 300 * time.Millisecond})

	// Stall only the first rung attempt for far longer than the budget;
	// the ladder must fall through and answer within the deadline.
	faultinject.Arm("engine/rung", faultinject.Fault{Delay: 10 * time.Second, Times: 1})
	start := obs.Now()
	var resp SolveResponse
	post(t, s.URL()+"/v1/solve", &SolveRequest{Family: "containment", Seed: 5, Left: 12, Right: 12}, http.StatusOK, &resp)
	elapsed := obs.Since(start)
	if !resp.Degraded {
		t.Errorf("stalled rung did not degrade: %+v", resp.Attempts)
	}
	if elapsed > time.Second {
		t.Errorf("request took %v, budget was 300ms — deadline did not bound the stall", elapsed)
	}
}

// TestGracefulDrain pins the shutdown contract: once draining, /readyz
// and /v1 answer 503 (with Retry-After) while the in-flight solve runs
// to completion and gets its 200 — no dropped responses.
func TestGracefulDrain(t *testing.T) {
	defer faultinject.Reset()
	s := startServer(t, Config{DrainTimeout: 5 * time.Second})

	// Hold one request in-flight across the drain, and stall the drain
	// hook long enough to observe the draining state from outside.
	faultinject.Arm(SiteHandler, faultinject.Fault{Delay: 300 * time.Millisecond, Times: 1})
	faultinject.Arm(SiteDrain, faultinject.Fault{Delay: 200 * time.Millisecond})

	inflight := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(&SolveRequest{Family: "equijoin", Seed: 9, Left: 8, Right: 8})
		hresp, err := http.Post(s.URL()+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- -1
			return
		}
		hresp.Body.Close()
		inflight <- hresp.StatusCode
	}()
	waitFor(t, "solve admitted", func() bool { return s.InFlight() == 1 })

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(context.Background()) }()
	waitFor(t, "draining", s.Draining)

	// While the drain hook stalls the listener is still accepting:
	// readiness and the API must both refuse with 503.
	resp, err := http.Get(s.URL() + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	var errResp ErrorResponse
	resp = post(t, s.URL()+"/v1/solve", &SolveRequest{Family: "equijoin", Seed: 10, Left: 8, Right: 8}, http.StatusServiceUnavailable, &errResp)
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After header")
	}

	if code := <-inflight; code != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200 — a drain must not drop admitted work", code)
	}
	if err := <-drained; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestDrainFaultDoesNotStrand pins that an injected drain-hook error is
// recorded and the drain still completes cleanly.
func TestDrainFaultDoesNotStrand(t *testing.T) {
	defer faultinject.Reset()
	s := startServer(t, Config{DrainTimeout: 2 * time.Second})
	faultinject.Arm(SiteDrain, faultinject.Fault{Err: errors.New("injected drain fault")})

	before := cDrainFaults.Value()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown with drain fault: %v", err)
	}
	if got := cDrainFaults.Value() - before; got != 1 {
		t.Errorf("serve/drain/faults delta = %d, want 1", got)
	}
}

// TestAdmitFaultRejects pins the serve/admit chaos path: an armed
// admission fault turns into 429 without occupying a slot.
func TestAdmitFaultRejects(t *testing.T) {
	defer faultinject.Reset()
	s := startServer(t, Config{})
	faultinject.Arm(SiteAdmit, faultinject.Fault{Err: errors.New("injected admission fault")})

	post(t, s.URL()+"/v1/solve", &SolveRequest{Family: "equijoin", Seed: 1, Left: 8, Right: 8}, http.StatusTooManyRequests, nil)
	if n := s.InFlight(); n != 0 {
		t.Errorf("injected admission fault leaked a slot: InFlight = %d", n)
	}
	faultinject.Reset()
	post(t, s.URL()+"/v1/solve", &SolveRequest{Family: "equijoin", Seed: 1, Left: 8, Right: 8}, http.StatusOK, nil)
}

// TestHandlerFaultRetryable pins the serve/handler chaos path: an armed
// handler fault answers 503 with a retry hint.
func TestHandlerFaultRetryable(t *testing.T) {
	defer faultinject.Reset()
	s := startServer(t, Config{})
	faultinject.Arm(SiteHandler, faultinject.Fault{Err: errors.New("injected handler fault"), Times: 1})

	var errResp ErrorResponse
	resp := post(t, s.URL()+"/v1/solve", &SolveRequest{Family: "equijoin", Seed: 1, Left: 8, Right: 8}, http.StatusServiceUnavailable, &errResp)
	if resp.Header.Get("Retry-After") == "" {
		t.Error("handler-fault 503 without Retry-After header")
	}
	// Times: 1 — the retry succeeds, exactly what the retrying client
	// would do.
	post(t, s.URL()+"/v1/solve", &SolveRequest{Family: "equijoin", Seed: 1, Left: 8, Right: 8}, http.StatusOK, nil)
}

// TestClientDisconnectCancelsSolve pins the cancellation contract: a
// client that hangs up mid-solve cancels the solve through the request
// context and increments serve/request/canceled; no response is written.
//
// The leakcheck snapshot is taken after startServer, so the accept loop
// is baseline and the verification — which runs before the shutdown
// cleanup, cleanups being LIFO — asserts specifically that the handler
// goroutine serving the canceled solve does not outlive the disconnect.
func TestClientDisconnectCancelsSolve(t *testing.T) {
	defer faultinject.Reset()
	s := startServer(t, Config{})
	leakcheck.Check(t)

	// Hold the request mid-flight so the disconnect happens while the
	// handler is working.
	faultinject.Arm(SiteHandler, faultinject.Fault{Delay: 5 * time.Second, Times: 1})
	before := cReqCanceled.Value()

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(&SolveRequest{Family: "equijoin", Seed: 1, Left: 8, Right: 8})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.URL()+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, "request admitted", func() bool { return s.InFlight() == 1 })
	cancel()
	if err := <-done; err == nil {
		t.Error("canceled request returned a response, want transport error")
	}
	waitFor(t, "cancellation counted", func() bool { return cReqCanceled.Value() > before })
	waitFor(t, "slot released", func() bool { return s.InFlight() == 0 })
}

// TestConcurrentSolvesSharedCache runs many concurrent solves of the
// same shape against one server sharing a single scheme cache — the
// -race configuration of the service path. Later requests must be
// served from cache, and engine/cache/hit must count each cached answer
// once.
func TestConcurrentSolvesSharedCache(t *testing.T) {
	hits := obs.Default.Counter("engine/cache/hit")
	hitsBefore := hits.Value()
	cache := schemecache.New(1<<20, 0)
	s := startServer(t, Config{MaxConcurrent: 4, MaxQueue: 64, QueueTimeout: 2 * time.Second, Cache: cache})

	// Same seed ⇒ same workload ⇒ same join-graph shape ⇒ same cache
	// key across all requests.
	solveOnce := func() (SolveResponse, error) {
		var resp SolveResponse
		body, err := json.Marshal(&SolveRequest{Family: "containment", Seed: 11, Left: 10, Right: 10})
		if err != nil {
			return resp, err
		}
		hresp, err := http.Post(s.URL()+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			return resp, err
		}
		defer hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			return resp, fmt.Errorf("status %d", hresp.StatusCode)
		}
		return resp, json.NewDecoder(hresp.Body).Decode(&resp)
	}

	const rounds, workers = 4, 8
	var cached, degraded int64
	var mu sync.Mutex
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := solveOnce()
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				if resp.Cached {
					cached++
				}
				if resp.Degraded {
					degraded++
				}
				mu.Unlock()
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("concurrent solve: %v", err)
		}
	}
	if cached == 0 {
		t.Errorf("0 of %d identical solves served from cache; cache stats: %+v", rounds*workers, cache.Stats())
	}
	if degraded != 0 {
		t.Errorf("%d solves degraded unexpectedly", degraded)
	}
	// A request's scope, and with it its engine counters, closes just
	// after its response is written.
	waitFor(t, "engine/cache/hit to count every cached answer", func() bool {
		return hits.Value()-hitsBefore == cached
	})
}

func TestAdmissionQueue(t *testing.T) {
	a := NewAdmission(1, 1, 50*time.Millisecond)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	if got := a.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}

	// Queue seat taken and timed out: ErrOverload after ~queueTimeout.
	start := obs.Now()
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrOverload) {
		t.Fatalf("queued Acquire = %v, want ErrOverload", err)
	}
	if d := obs.Since(start); d < 40*time.Millisecond {
		t.Errorf("queue timeout fired after %v, want ~50ms", d)
	}

	// A canceled waiter reports the cancellation, not overload.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx)
		errc <- err
	}()
	waitFor(t, "waiter queued", func() bool { return a.Waiting() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled Acquire = %v, want context.Canceled", err)
	}

	release()
	release() // idempotent
	if got := a.InFlight(); got != 0 {
		t.Errorf("InFlight after release = %d, want 0", got)
	}
}

func TestAdmissionQueueOverflow(t *testing.T) {
	a := NewAdmission(1, 0, time.Second)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer release()
	start := obs.Now()
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrOverload) {
		t.Fatalf("overflow Acquire = %v, want ErrOverload", err)
	}
	if d := obs.Since(start); d > 100*time.Millisecond {
		t.Errorf("zero-queue rejection took %v, want immediate", d)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 1}, {time.Millisecond, 1}, {time.Second, 1}, {1500 * time.Millisecond, 2}, {3 * time.Second, 3},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := obs.Now().Add(5 * time.Second)
	for obs.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
