package serve

// The /v1 HTTP+JSON surface: request decoding, the shared
// admission → budget → scope → solve pipeline, and response/error
// mapping. The request schema is documented in DESIGN.md ("Service").

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"joinpebble/internal/engine"
	"joinpebble/internal/faultinject"
	"joinpebble/internal/graph"
	"joinpebble/internal/join"
	"joinpebble/internal/obs"
	"joinpebble/internal/solver"
	"joinpebble/internal/workload"
)

// Request-path counters (global: they count process-wide request
// outcomes; the per-request detail lives in each request's scope).
var (
	cSolveRequests = obs.Default.Counter("serve/solve/requests")
	cPlanRequests  = obs.Default.Counter("serve/plan/requests")
	cAuditRequests = obs.Default.Counter("serve/audit/requests")

	tSolveLatency = obs.Default.Timer("serve/solve/latency")
	tPlanLatency  = obs.Default.Timer("serve/plan/latency")
	tAuditLatency = obs.Default.Timer("serve/audit/latency")

	// cReqCanceled counts requests whose client disconnected while the
	// solve was running: the context cancellation propagated up through
	// the planner and no response was written. The disconnect test pins
	// this counter.
	cReqCanceled = obs.Default.Counter("serve/request/canceled")
	// cReqBad counts malformed requests (400).
	cReqBad = obs.Default.Counter("serve/request/bad")
	// cReqDeadline counts admitted requests whose budget expired without
	// a scheme (503) — only strict runs or pathological budgets land
	// here; degrading runs fall down the ladder instead.
	cReqDeadline = obs.Default.Counter("serve/request/deadline")
	// cReqError counts internal failures (500).
	cReqError = obs.Default.Counter("serve/request/errors")
	// cReqDraining counts requests bounced with 503 because the server
	// was draining.
	cReqDraining = obs.Default.Counter("serve/request/draining")
	// cReqFaults counts requests failed by an injected serve/handler
	// fault (503, retryable).
	cReqFaults = obs.Default.Counter("serve/request/faults")
)

// Per-request scope names (also the flight-recorder labels).
const (
	scopeSolve = "serve/solve"
	scopePlan  = "serve/plan"
	scopeAudit = "serve/audit"
)

// SolveRequest is the /v1/solve and /v1/plan request body, and the
// instance half of /v1/audit. An instance is either generated — Family
// names a predicate family, Left/Right are relation sizes,
// Seed/Skew drive the workload generator — or given: Family "bipartite"
// with Left/Right vertex counts and an explicit edge list.
type SolveRequest struct {
	Family string `json:"family"`
	Seed   int64  `json:"seed"`
	// Left and Right are relation sizes (generated families) or side
	// vertex counts (family "bipartite").
	Left  int `json:"left"`
	Right int `json:"right"`
	// Skew shapes generated workloads: the zipf s parameter for
	// equijoin, the cluster count for spatial (truncated; at most the
	// server's relation cap), unused for containment.
	Skew float64 `json:"skew,omitempty"`
	// Edges is the explicit edge list for family "bipartite":
	// [left, right] vertex index pairs.
	Edges [][2]int `json:"edges,omitempty"`
	// BudgetMS bounds the solve in milliseconds; 0 means the server's
	// per-request cap, larger values are clamped to it.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// Solver, when set, overrides routing with one of servedSolvers;
	// "auto" leaves routing to the engine, like no solver.
	Solver string `json:"solver,omitempty"`
	// Strict disables the degradation ladder: the planned rung's failure
	// is the request's failure (422 when its solver rejects the instance).
	Strict bool `json:"strict,omitempty"`
	// Pairs is the emission order to audit (/v1/audit only): [left,
	// right] tuple index pairs, one per join-graph edge.
	Pairs [][2]int `json:"pairs,omitempty"`
}

// AttemptJSON is one ladder rung try in a response.
type AttemptJSON struct {
	Solver    string `json:"solver"`
	Err       string `json:"err,omitempty"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

// SolveResponse is the /v1/solve response body.
type SolveResponse struct {
	Family        string        `json:"family"`
	Route         string        `json:"route"`
	Solver        string        `json:"solver"`
	Reason        string        `json:"reason"`
	Quality       string        `json:"quality"`
	Degraded      bool          `json:"degraded"`
	Cached        bool          `json:"cached"`
	Cost          int           `json:"cost"`
	EffectiveCost int           `json:"effective_cost"`
	LowerBound    int           `json:"lower_bound"`
	UpperBound    int           `json:"upper_bound"`
	Perfect       bool          `json:"perfect"`
	Vertices      int           `json:"vertices"`
	Edges         int           `json:"edges"`
	Components    int           `json:"components"`
	Attempts      []AttemptJSON `json:"attempts,omitempty"`
	ElapsedNS     int64         `json:"elapsed_ns"`
}

// PlanResponse is the /v1/plan response body: the routing decision
// without the solve.
type PlanResponse struct {
	Family   string `json:"family"`
	Route    string `json:"route"`
	Solver   string `json:"solver"`
	Reason   string `json:"reason"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

// AuditResponse is the /v1/audit response body: the pebble-game score
// of the submitted emission order.
type AuditResponse struct {
	Family        string `json:"family"`
	Pairs         int    `json:"pairs"`
	Cost          int    `json:"cost"`
	EffectiveCost int    `json:"effective_cost"`
	Jumps         int    `json:"jumps"`
	Perfect       bool   `json:"perfect"`
}

// ErrorResponse is every non-2xx body. RetryAfterMS is set when the
// condition is transient (overload, drain, injected handler fault) and
// mirrors the Retry-After header at millisecond resolution.
type ErrorResponse struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// endpoint is one /v1 route: its bookkeeping metrics, its scope
// constructor (a closure so the obs scope name stays a compile-time
// constant at the NewScope call site), and the work under the pipeline.
type endpoint struct {
	requests *obs.Counter
	latency  *obs.Timer
	newScope func() *obs.Scope
	run      func(ctx context.Context, s *Server, req *SolveRequest) (any, error)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.serveV1(w, r, endpoint{
		requests: cSolveRequests,
		latency:  tSolveLatency,
		newScope: func() *obs.Scope { return obs.NewScope(scopeSolve) },
		run:      runSolve,
	})
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.serveV1(w, r, endpoint{
		requests: cPlanRequests,
		latency:  tPlanLatency,
		newScope: func() *obs.Scope { return obs.NewScope(scopePlan) },
		run:      runPlan,
	})
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	s.serveV1(w, r, endpoint{
		requests: cAuditRequests,
		latency:  tAuditLatency,
		newScope: func() *obs.Scope { return obs.NewScope(scopeAudit) },
		run:      runAudit,
	})
}

// serveV1 is the shared pipeline: method check → drain check → decode →
// admission → budget → scope → fault site → endpoint work → response.
func (s *Server) serveV1(w http.ResponseWriter, r *http.Request, ep endpoint) {
	start := obs.Now()
	ep.requests.Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only", 0)
		return
	}
	if s.draining.Load() {
		cReqDraining.Inc()
		writeError(w, http.StatusServiceUnavailable, "draining", s.admission.RetryAfter())
		return
	}
	var req SolveRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		cReqBad.Inc()
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error(), 0)
		return
	}

	release, err := s.admission.Acquire(r.Context())
	if err != nil {
		if errors.Is(err, ErrOverload) {
			writeError(w, http.StatusTooManyRequests, err.Error(), s.admission.RetryAfter())
			return
		}
		// The client hung up while queued (counted in admission); there
		// is nobody to answer.
		return
	}
	defer release()

	// The request budget, carved into ladder rungs by the planner's
	// degradation policy.
	ctx, cancel := context.WithTimeout(r.Context(), requestBudget(req.BudgetMS, s.cfg.RequestTimeout))
	defer cancel()

	sc := ep.newScope()
	ctx = obs.WithScope(ctx, sc)
	defer sc.Close()
	sc.Note("family", req.Family)

	if err := faultinject.Fire(ctx, SiteHandler); err != nil {
		if r.Context().Err() != nil {
			cReqCanceled.Inc()
			return
		}
		cReqFaults.Inc()
		sc.Flag(obs.FlagFault)
		writeError(w, http.StatusServiceUnavailable, "transient handler fault: "+err.Error(), s.admission.RetryAfter())
		return
	}

	resp, err := ep.run(ctx, s, &req)
	if err != nil {
		switch {
		case errors.Is(err, errBadRequest):
			cReqBad.Inc()
			writeError(w, http.StatusBadRequest, err.Error(), 0)
		case r.Context().Err() != nil:
			// Client gone mid-solve: the cancellation rode ctx down into
			// the solver; there is no one to write to.
			cReqCanceled.Inc()
		case errors.Is(err, context.DeadlineExceeded):
			cReqDeadline.Inc()
			writeError(w, http.StatusServiceUnavailable, "budget exhausted: "+err.Error(), s.admission.RetryAfter())
		case errors.Is(err, solver.ErrStructure), errors.Is(err, solver.ErrBudgetExceeded):
			// A strict run's solver rejected this instance: the request
			// is well formed, and the same request fails the same way.
			writeError(w, http.StatusUnprocessableEntity, err.Error(), 0)
		default:
			cReqError.Inc()
			sc.Flag(obs.FlagError)
			writeError(w, http.StatusInternalServerError, err.Error(), 0)
		}
		return
	}
	ep.latency.Observe(obs.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// requestBudget is a request's solve deadline, min(budget_ms, limit),
// where a budget_ms of 0 or less means limit. It compares milliseconds
// before converting, so no budget_ms can overflow a Duration.
func requestBudget(budgetMS int64, limit time.Duration) time.Duration {
	if budgetMS > 0 && budgetMS <= limit.Milliseconds() {
		return time.Duration(budgetMS) * time.Millisecond
	}
	return limit
}

// runSolve is the /v1/solve work: check the solver override, build the
// instance, run the planner ladder under the request budget, and shape
// the result.
func runSolve(ctx context.Context, s *Server, req *SolveRequest) (any, error) {
	p, err := s.planner(req)
	if err != nil {
		return nil, err
	}
	in, err := s.buildInstance(req)
	if err != nil {
		return nil, err
	}
	res, err := p.Run(ctx, in)
	if err != nil {
		return nil, err
	}
	out := &SolveResponse{
		Family:        res.Family,
		Route:         res.Route.String(),
		Solver:        res.Solver,
		Reason:        res.Reason,
		Quality:       res.Quality,
		Degraded:      res.Degraded,
		Cached:        res.Solver == engine.CachedSolverName,
		Cost:          res.Cost,
		EffectiveCost: res.EffectiveCost,
		LowerBound:    res.LowerBound,
		UpperBound:    res.UpperBound,
		Perfect:       res.Perfect,
		Vertices:      res.Vertices,
		Edges:         res.Edges,
		Components:    res.Components,
		ElapsedNS:     int64(res.Elapsed),
	}
	for _, a := range res.Attempts {
		out.Attempts = append(out.Attempts, AttemptJSON{Solver: a.Solver, Err: a.Err, ElapsedNS: int64(a.Elapsed)})
	}
	return out, nil
}

// runPlan is the /v1/plan work: route without solving.
func runPlan(_ context.Context, s *Server, req *SolveRequest) (any, error) {
	p, err := s.planner(req)
	if err != nil {
		return nil, err
	}
	in, err := s.buildInstance(req)
	if err != nil {
		return nil, err
	}
	plan := p.Plan(in)
	g := in.Graph()
	return &PlanResponse{
		Family:   in.Family,
		Route:    plan.Route.String(),
		Solver:   plan.Solver.Name(),
		Reason:   plan.Reason,
		Vertices: g.N(),
		Edges:    g.M(),
	}, nil
}

// runAudit is the /v1/audit work: score the submitted emission order
// against the instance's join graph.
func runAudit(_ context.Context, s *Server, req *SolveRequest) (any, error) {
	in, err := s.buildInstance(req)
	if err != nil {
		return nil, err
	}
	pairs := make([]join.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = join.Pair{L: p[0], R: p[1]}
	}
	audit, err := in.AuditPairs(pairs)
	if err != nil {
		return nil, badRequestf("audit: %v", err)
	}
	return &AuditResponse{
		Family:        in.Family,
		Pairs:         audit.Pairs,
		Cost:          audit.Cost,
		EffectiveCost: audit.EffectiveCost,
		Jumps:         audit.Jumps,
		Perfect:       audit.Perfect,
	}, nil
}

// servedSolvers are the solver overrides /v1 accepts besides "auto".
// Each runs in time linear in the instance, or, for exact, within
// tsp.MaxExactCities edges per component. The other named solvers
// build every component's full line graph (cycle-cover also an m×m
// matrix) before they check ctx, so no request budget bounds them; the
// CLIs and experiments keep them.
var servedSolvers = []string{"approx-1.25", "equijoin", "exact", "matching", "naive"}

// planner builds the per-request Planner: the request's strictness and
// solver override, and the server's scheme cache.
func (s *Server) planner(req *SolveRequest) (*engine.Planner, error) {
	if req.Solver != "" && req.Solver != "auto" && !slices.Contains(servedSolvers, req.Solver) {
		return nil, badRequestf("solver %q is not served over /v1 (served: auto, %s)", req.Solver, strings.Join(servedSolvers, ", "))
	}
	sv, err := solver.ByName(req.Solver)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	return &engine.Planner{
		Solver:  sv,
		Degrade: solver.LadderPolicy{Off: req.Strict},
		Cache:   s.cfg.Cache,
	}, nil
}

// buildInstance materializes the request's join problem: an explicit
// bipartite graph, or a generated workload of a predicate family.
func (s *Server) buildInstance(req *SolveRequest) (*engine.Instance, error) {
	if req.Left < 0 || req.Right < 0 {
		return nil, badRequestf("negative relation size %d/%d", req.Left, req.Right)
	}
	if req.Left > s.cfg.MaxRelation || req.Right > s.cfg.MaxRelation {
		return nil, badRequestf("relation size %d/%d exceeds cap %d", req.Left, req.Right, s.cfg.MaxRelation)
	}
	switch req.Family {
	case "bipartite":
		if len(req.Edges) > s.cfg.MaxEdges {
			return nil, badRequestf("%d edges exceeds cap %d", len(req.Edges), s.cfg.MaxEdges)
		}
		edges := make([]graph.Edge, len(req.Edges))
		for i, e := range req.Edges {
			if e[0] < 0 || e[0] >= req.Left || e[1] < 0 || e[1] >= req.Right {
				return nil, badRequestf("edge [%d,%d] out of range %dx%d", e[0], e[1], req.Left, req.Right)
			}
			edges[i] = graph.Edge{U: e[0], V: e[1]}
		}
		return engine.FromBipartite("bipartite", graph.NewBipartite(req.Left, req.Right, edges)), nil
	case "":
		return nil, badRequestf("family is required")
	}
	if req.Left == 0 || req.Right == 0 {
		return nil, badRequestf("family %s needs non-zero relation sizes", req.Family)
	}
	var w engine.Workload
	switch req.Family {
	case "equijoin":
		w = workload.Equijoin{
			LeftSize:  req.Left,
			RightSize: req.Right,
			Domain:    max(2, int64(req.Left+req.Right)/4),
			Skew:      req.Skew,
		}
	case "containment":
		w = workload.SetContainment{
			LeftSize:   req.Left,
			RightSize:  req.Right,
			Universe:   64,
			LeftMax:    3,
			RightMax:   12,
			Correlated: true,
		}
	case "spatial":
		// Skew is the cluster count here, and the generator allocates
		// every cluster center whatever the relation sizes.
		if req.Skew > float64(s.cfg.MaxRelation) {
			return nil, badRequestf("spatial skew %g exceeds cap %d", req.Skew, s.cfg.MaxRelation)
		}
		w = workload.Spatial{
			LeftSize:  req.Left,
			RightSize: req.Right,
			Span:      100,
			MaxExtent: 8,
			Clusters:  int(req.Skew),
		}
	default:
		return nil, badRequestf("unknown family %q", req.Family)
	}
	in, err := engine.Generate(w, req.Seed)
	if err != nil {
		return nil, badRequestf("generate %s: %v", req.Family, err)
	}
	return in, nil
}

// writeJSON writes v as the response body with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort response body
}

// writeError writes an ErrorResponse; retryAfter > 0 marks the failure
// transient and sets the Retry-After header (whole seconds, so clients
// that only read the header still back off).
func writeError(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	resp := ErrorResponse{Error: msg}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
		resp.RetryAfterMS = retryAfter.Milliseconds()
	}
	writeJSON(w, code, resp)
}
