package solver

import (
	"context"
	"fmt"

	"joinpebble/internal/core"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
	"joinpebble/internal/tsp"
)

// Decide outcome counters: how often each rung of the decision ladder
// settles a PEBBLE(D) query without paying for the rungs below it.
var (
	cDecideCalls       = obs.ScopedCounter("solver/decide/calls")
	cDecideLowerBound  = obs.ScopedCounter("solver/decide/by_lower_bound")
	cDecideUpperBound  = obs.ScopedCounter("solver/decide/by_upper_bound")
	cDecideCertificate = obs.ScopedCounter("solver/decide/by_certificate")
	cDecideExact       = obs.ScopedCounter("solver/decide/by_exact")
)

// Decide answers PEBBLE(D) of Definition 4.1 under ctx: given G and an
// integer K, is π(G) <= K? It short-circuits with the combinatorial
// bounds of Lemma 2.3 (yes when K >= the Theorem 3.1 bound, no when
// K < m) and the cheap upper bounds from the polynomial solvers before
// falling back to the exact solver, so many instances never pay the
// exponential cost — but the worst case is still exponential, as
// Theorem 4.2 says it must be unless P = NP. Cancellation is observed
// between rungs and inside each rung's component pool.
func Decide(ctx context.Context, g *graph.Graph, k int) (bool, error) {
	cDecideCalls.Inc(ctx)
	sp := obs.StartSpanCtx(ctx, "decide")
	defer sp.End()
	m := g.M()
	if m == 0 {
		return k >= 0, nil
	}
	// Lemma 2.3 lower bound: π >= m always.
	if k < m {
		cDecideLowerBound.Inc(ctx)
		return false, nil
	}
	// Theorem 3.1 upper bound: π <= sum of m_i + floor((m_i-1)/4).
	if k >= ApproxCostBound(g)-core.Betti0(g) {
		cDecideUpperBound.Inc(ctx)
		return true, nil
	}
	// A cheap certificate: if any polynomial solver achieves <= K we are
	// done without exact search.
	for _, s := range []Solver{Greedy{}, Approx125{}, GreedyImproved{}} {
		scheme, err := s.Solve(ctx, g)
		if err != nil {
			return false, err
		}
		if scheme.EffectiveCost(g) <= k {
			cDecideCertificate.Inc(ctx)
			return true, nil
		}
	}
	cDecideExact.Inc(ctx)
	scheme, err := Exact{}.Solve(ctx, g)
	if err != nil {
		return false, err
	}
	cost, err := core.VerifyContext(ctx, g, scheme)
	if err != nil {
		return false, err
	}
	return cost-core.Betti0(g) <= k, nil
}

// ApproxWithin solves the ε-approximation problem of Definition 4.1
// under ctx: find a scheme within factor 1+ε of optimal effective cost.
// The solver ladder mirrors the paper's approximability landscape (§4):
//
//	ε >= 1     — any scheme works (Lemma 2.1's factor-2 is universal);
//	ε >= 0.25  — Lemma 3.1's linear-time 1.25 approximation;
//	ε >= 1/6   — the cycle-cover solver in the Papadimitriou–Yannakakis
//	             regime ([12]), guarded by a certificate check;
//	ε < 1/6    — exact search: per the MAX-SNP-completeness of PEBBLE
//	             (Theorem 4.4) some ε₀ admits no polynomial algorithm
//	             unless P = NP, so small ε legitimately costs
//	             exponential time here.
//
// Every returned scheme carries a certificate: its effective cost is
// checked against the m lower bound, so the promised factor holds
// unconditionally.
func ApproxWithin(ctx context.Context, g *graph.Graph, eps float64) (core.Scheme, error) {
	if eps < 0 {
		return nil, fmt.Errorf("solver: negative epsilon %v", eps)
	}
	m := g.M()
	if m == 0 {
		return core.Scheme{}, nil
	}
	try := func(s Solver) (core.Scheme, bool, error) {
		scheme, err := s.Solve(ctx, g)
		if err != nil {
			return nil, false, err
		}
		// Certificate: effective cost within (1+eps)*m guarantees the
		// factor against any optimum (π* >= m by Lemma 2.3).
		if float64(scheme.EffectiveCost(g)) <= (1+eps)*float64(m) {
			return scheme, true, nil
		}
		return nil, false, nil
	}
	ladder := []Solver{}
	switch {
	case eps >= 1:
		ladder = append(ladder, Naive{}, Greedy{})
	case eps >= 0.25:
		ladder = append(ladder, Approx125{}, Greedy{})
	case eps >= 1.0/6.0:
		ladder = append(ladder, CycleCover{}, GreedyImproved{}, Approx125{})
	}
	for _, s := range ladder {
		scheme, ok, err := try(s)
		if err != nil {
			return nil, err
		}
		if ok {
			return scheme, nil
		}
	}
	// Either eps is below the heuristic regime or no certificate
	// materialized (the m-based check is conservative); fall back to
	// exact, which trivially satisfies any eps.
	return Exact{}.Solve(ctx, g)
}

// HamiltonianLineGraphDecision decides Proposition 2.1's special case
// π(G) = m by searching L(G) for a Hamiltonian path per component —
// the K = m instance of PEBBLE(D).
func HamiltonianLineGraphDecision(g *graph.Graph) (bool, error) {
	for _, comp := range g.Components() {
		if len(comp) < 2 {
			continue
		}
		cg, _ := g.InducedSubgraph(comp)
		if cg.M() > tsp.MaxExactCities {
			return false, fmt.Errorf("%w: component with %d edges exceeds decision budget", ErrBudgetExceeded, cg.M())
		}
		if _, ok := graph.HamiltonianPath(graph.LineGraph(cg)); !ok {
			return false, nil
		}
	}
	return true, nil
}
