package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// fuzzExactLimit is the fuzz server's exact limit, kept apart so the
// target can check exact answers against it.
const fuzzExactLimit = 8

// fuzzAnswering are the solvers a /v1 solve may be answered by: the
// served overrides, which include the ladder's fallbacks. It is spelled
// out here rather than read from servedSolvers, so that serving another
// solver takes a deliberate edit to this target too.
var fuzzAnswering = []string{"approx-1.25", "equijoin", "exact", "matching", "naive"}

// FuzzV1 drives the /v1 request path with an endpoint selector and a raw
// body, straight into the handlers of a small-capped server with no
// scheme cache. Every answer must be 200, 400, 422 or a budget-exhausted
// 503, never a panic. A 200 solve must come from a served solver, keep
// exact inside the exact limit, lie within Lemma 2.1's bounds with
// π = π̂ − β₀, and, from approx-1.25, meet Theorem 3.1's
// π ≤ m + ⌊(m−1)/4⌋.
func FuzzV1(f *testing.F) {
	cfg := Config{
		MaxRelation:    64,
		MaxEdges:       256,
		RequestTimeout: 100 * time.Millisecond,
		ExactLimit:     fuzzExactLimit,
	}.withDefaults()
	s := &Server{cfg: cfg, admission: NewAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueTimeout)}
	handlers := []func(http.ResponseWriter, *http.Request){s.handleSolve, s.handlePlan, s.handleAudit}

	// Requests the server once mishandled: audit pairs outside the graph
	// (a panic), an explicit exact over the exact limit, a solver that no
	// budget bounds, and strict structure rejections (a 500).
	const solve, audit = 0, 2
	for _, seed := range []struct {
		endpoint uint8
		body     string
	}{
		{audit, `{"family":"bipartite","left":1,"right":1,"edges":[[0,0]],"pairs":[[5,0]]}`},
		{audit, `{"family":"bipartite","left":1,"right":1,"edges":[[0,0]],"pairs":[[0,-1]]}`},
		{audit, `{"family":"bipartite","left":1,"right":1,"edges":[[0,0]],"pairs":[[-1,0]]}`},
		{solve, `{"family":"bipartite","left":5,"right":5,"edges":[[0,0],[1,0],[1,1],[2,1],[2,2],[3,2],[3,3],[4,3],[4,4]],"solver":"exact","strict":true}`},
		{solve, `{"family":"equijoin","left":16,"right":16,"skew":1.2,"seed":1,"solver":"greedy"}`},
		{solve, `{"family":"bipartite","left":2,"right":2,"edges":[[0,0],[1,0],[1,1]],"solver":"equijoin","strict":true}`},
		{solve, `{"family":"bipartite","left":2,"right":2,"edges":[[0,0],[0,1],[1,0],[1,1]],"solver":"matching","strict":true}`},
	} {
		f.Add(seed.endpoint, []byte(seed.body))
	}

	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		ep := int(endpoint) % len(handlers)
		w := httptest.NewRecorder()
		handlers[ep](w, httptest.NewRequest(http.MethodPost, "/v1/", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity:
		case http.StatusServiceUnavailable:
			var e ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.HasPrefix(e.Error, "budget exhausted") {
				t.Fatalf("503 that is not budget exhaustion: %s", w.Body)
			}
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if w.Code != http.StatusOK || ep != solve {
			return
		}
		var r SolveResponse
		if err := json.Unmarshal(w.Body.Bytes(), &r); err != nil {
			t.Fatalf("decode 200 solve: %v: %s", err, w.Body)
		}
		switch {
		case !slices.Contains(fuzzAnswering, r.Solver):
			t.Fatalf("answered by %q, which /v1 does not serve: %s", r.Solver, w.Body)
		case r.Solver == "exact" && r.Edges > r.Components*fuzzExactLimit:
			t.Fatalf("exact answered %d edges in %d components over the exact limit %d", r.Edges, r.Components, fuzzExactLimit)
		case r.Cost < r.LowerBound || r.Cost > r.UpperBound:
			t.Fatalf("cost %d outside Lemma 2.1's [%d, %d]", r.Cost, r.LowerBound, r.UpperBound)
		case r.EffectiveCost != r.Cost-r.Components:
			t.Fatalf("effective cost %d, want cost %d − components %d", r.EffectiveCost, r.Cost, r.Components)
		case r.Solver == "approx-1.25" && r.EffectiveCost > r.Edges+(r.Edges-1)/4:
			t.Fatalf("approx-1.25 π = %d over Theorem 3.1's bound for m = %d", r.EffectiveCost, r.Edges)
		}
	})
}
