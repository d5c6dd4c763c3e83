package main

// The traced run. It replays a workload's leading requests one at a
// time: each goes to a fresh pebbled over HTTP, which gives its unloaded
// latency, and is then repeated in this process through the public
// functions of each layer, each call under a span of the benchmark's own
// tracer. Nothing inside the program is instrumented for it. The
// decomposition copies what serve and engine do for a /v1/solve request,
// and the cross-check against pebbled's answer keeps that copy honest.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"joinpebble/internal/core"
	"joinpebble/internal/engine"
	"joinpebble/internal/graph"
	"joinpebble/internal/obs"
	"joinpebble/internal/schemecache"
	"joinpebble/internal/serve"
	"joinpebble/internal/solver"
	workloadgen "joinpebble/internal/workload"
)

// Span names, one per layer entry point the replay calls. Every layer
// span is a direct child of its request's span.
const (
	spanRequest   = "pebblebench/request"
	spanGenerate  = "workload/generate"
	spanBuild     = "join/build"
	spanPlan      = "engine/plan"
	spanCanon     = "graph/canon"
	spanCacheGet  = "schemecache/get"
	spanTranslate = "schemecache/translate"
	spanVerify    = "core/verify"
	spanInsert    = "schemecache/insert"
	spanEquijoin  = "solver/equijoin"
	spanExact     = "solver/exact"
	spanApprox    = "solver/approx-1.25"
	spanNaive     = "solver/naive"

	attrEdges = "edges"
)

// pebbled's defaults that shape a solve: the scheme cache size, the
// per-request budget, and the share of what is left of it a non-final
// ladder rung may spend.
const (
	cacheBytes    = 64 << 20
	requestBudget = 5 * time.Second
	rungFraction  = 0.5
)

// replayer repeats requests in process against its own scheme cache.
type replayer struct {
	cache   *schemecache.Cache
	scratch *graph.CanonScratch
}

func newReplayer() *replayer {
	return &replayer{cache: schemecache.New(cacheBytes, 0), scratch: graph.NewCanonScratch()}
}

// decomposition is what the in-process repeat of one request produced.
type decomposition struct {
	vertices, edges int
	solver          string
	cost            int
	attempts        []serve.AttemptJSON
	// generate and build happen before pebbled's solve clock starts: the
	// response's elapsed_ns leaves them out.
	generate, build time.Duration
}

// generator returns the workload generator pebbled builds req's instance
// with, with the same parameters as serve's instance builder.
func generator(req *serve.SolveRequest) (engine.Workload, error) {
	switch req.Family {
	case "equijoin":
		return workloadgen.Equijoin{
			LeftSize:  req.Left,
			RightSize: req.Right,
			Domain:    max(2, int64(req.Left+req.Right)/4),
			Skew:      req.Skew,
		}, nil
	case "containment":
		return workloadgen.SetContainment{
			LeftSize:   req.Left,
			RightSize:  req.Right,
			Universe:   64,
			LeftMax:    3,
			RightMax:   12,
			Correlated: true,
		}, nil
	case "spatial":
		return workloadgen.Spatial{
			LeftSize:  req.Left,
			RightSize: req.Right,
			Span:      100,
			MaxExtent: 8,
			Clusters:  int(req.Skew),
		}, nil
	}
	return nil, fmt.Errorf("no generator for family %q", req.Family)
}

// cacheKey is the engine's scheme-cache key: the canonical fingerprint
// mixed with the family, the guarantee bits and the planned solver.
func cacheKey(fp graph.Fingerprint, in *engine.Instance, planned string) graph.Fingerprint {
	var bits uint64
	if in.Guarantees.CompleteBipartite {
		bits |= 1
	}
	if in.Guarantees.Universal {
		bits |= 2
	}
	return fp.Mix(hashString(in.Family), bits, hashString(planned))
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// solve repeats req in process, each layer call under a child span of
// parent; a nil parent records nothing. Like pebbled, it starts the
// request's budget before building the instance, tries the cache as an
// optional first rung, then walks the planned solver and the universal
// fallbacks, and caches only undegraded solves.
func (rp *replayer) solve(parent *obs.Span, req *serve.SolveRequest) (*decomposition, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestBudget)
	defer cancel()
	gen, err := generator(req)
	if err != nil {
		return nil, err
	}
	pred, ok := engine.Lookup(gen.Family())
	if !ok {
		return nil, fmt.Errorf("family %q is not registered", gen.Family())
	}
	var d decomposition

	start := obs.Now()
	sp := parent.Start(spanGenerate)
	l, r := gen.Generate(req.Seed)
	sp.End()
	d.generate = obs.Since(start)

	start = obs.Now()
	sp = parent.Start(spanBuild)
	in, err := engine.NewInstance(pred, l, r)
	if err != nil {
		sp.End()
		return nil, err
	}
	g := in.Graph()
	sp.SetInt(attrEdges, int64(g.M()))
	sp.End()
	d.build = obs.Since(start)
	d.vertices, d.edges = g.N(), g.M()

	sp = parent.Start(spanPlan)
	plan := (&engine.Planner{}).Plan(in)
	sp.End()

	var (
		key  graph.Fingerprint
		perm []int32
	)
	rungs := []solver.Rung{{
		Name:     engine.CachedSolverName,
		Optional: true,
		Attempt: func(ctx context.Context) (core.Scheme, int, error) {
			sp := parent.Start(spanCanon)
			var fp graph.Fingerprint
			perm, fp = graph.Canonicalize(g, rp.scratch)
			key = cacheKey(fp, in, plan.Solver.Name())
			sp.End()

			sp = parent.Start(spanCacheGet)
			ent, err := rp.cache.Get(key)
			sp.End()
			if err != nil {
				return nil, 0, err
			}
			if ent.N != g.N() || ent.M != g.M() {
				return nil, 0, errors.New("cached entry has another shape")
			}
			sp = parent.Start(spanTranslate)
			scheme := schemecache.FromCanonical(ent.Scheme, perm)
			sp.End()
			cost, err := verify(ctx, parent, g, scheme)
			if err != nil {
				return nil, 0, err
			}
			if cost != ent.Cost {
				return nil, 0, fmt.Errorf("cached scheme verified at cost %d, entry says %d", cost, ent.Cost)
			}
			return scheme, cost, nil
		},
	}}
	rungs = append(rungs, solverRung(parent, plan.Solver, g))
	for _, fb := range []solver.Solver{solver.Approx125{}, solver.Naive{}} {
		if fb.Name() != plan.Solver.Name() {
			rungs = append(rungs, solverRung(parent, fb, g))
		}
	}
	record := func(o solver.RungOutcome) {
		switch {
		case o.Err == nil:
			d.attempts = append(d.attempts, serve.AttemptJSON{Solver: o.Name})
		case !o.Optional:
			d.attempts = append(d.attempts, serve.AttemptJSON{Solver: o.Name, Err: o.Err.Error()})
		}
	}
	wr, err := solver.WalkLadder(ctx, rungs, solver.LadderPolicy{RungFraction: rungFraction}, record)
	if err != nil {
		return nil, fmt.Errorf("in-process solve: %w", err)
	}
	d.solver, d.cost = wr.Rung, wr.Cost
	if wr.Rung != engine.CachedSolverName && wr.Degraded == 0 {
		sp := parent.Start(spanInsert)
		rp.cache.Insert(key, schemecache.Entry{
			Scheme: schemecache.ToCanonical(wr.Scheme, perm),
			N:      g.N(),
			M:      g.M(),
			Cost:   wr.Cost,
			Solver: wr.Rung,
		})
		sp.End()
	}
	return &d, nil
}

// solverRung is one solver step of the ladder: the solve under the
// solver's span, then the simulator check under the verify span.
func solverRung(parent *obs.Span, s solver.Solver, g *graph.Graph) solver.Rung {
	return solver.Rung{
		Name: s.Name(),
		Attempt: func(ctx context.Context) (core.Scheme, int, error) {
			sp := startSolverSpan(parent, s.Name())
			scheme, err := solver.SolveContext(ctx, s, g)
			sp.End()
			if err != nil {
				return nil, 0, fmt.Errorf("solver %s: %w", s.Name(), err)
			}
			cost, err := verify(ctx, parent, g, scheme)
			return scheme, cost, err
		},
	}
}

func startSolverSpan(parent *obs.Span, name string) *obs.Span {
	switch name {
	case "equijoin":
		return parent.Start(spanEquijoin)
	case "exact":
		return parent.Start(spanExact)
	case "approx-1.25":
		return parent.Start(spanApprox)
	default:
		return parent.Start(spanNaive)
	}
}

func verify(ctx context.Context, parent *obs.Span, g *graph.Graph, scheme core.Scheme) (int, error) {
	sp := parent.Start(spanVerify)
	sp.SetInt(attrEdges, int64(g.M()))
	defer sp.End()
	return core.VerifyContext(ctx, g, scheme)
}

// crossCheck reports where the in-process repeat disagrees with
// pebbled's answer to the same request: the instance shape and solver
// always, the cost for an undegraded answer, the attempt list for a
// degraded one.
func crossCheck(resp *serve.SolveResponse, d *decomposition) error {
	if resp.Vertices != d.vertices || resp.Edges != d.edges {
		return fmt.Errorf("pebbled built %dv/%de, replay %dv/%de", resp.Vertices, resp.Edges, d.vertices, d.edges)
	}
	if resp.Solver != d.solver {
		return fmt.Errorf("pebbled answered with %s (attempts %+v), replay with %s (attempts %+v)", resp.Solver, resp.Attempts, d.solver, d.attempts)
	}
	if !resp.Degraded {
		if resp.Cost != d.cost {
			return fmt.Errorf("pebbled cost %d, replay cost %d", resp.Cost, d.cost)
		}
		return nil
	}
	same := len(resp.Attempts) == len(d.attempts)
	for i := 0; same && i < len(resp.Attempts); i++ {
		a, b := resp.Attempts[i], d.attempts[i]
		same = a.Solver == b.Solver && (a.Err == "") == (b.Err == "")
	}
	if !same {
		return fmt.Errorf("pebbled attempts %+v, replay %+v", resp.Attempts, d.attempts)
	}
	return nil
}

// replay runs the traced replay against base, a pebbled that has served
// nothing but the workload's set-up: it fills the replayer's cache the
// way set-up filled pebbled's, then replays up to limit leading
// closed-phase requests until the deadline, cross-checking each. It
// returns the per-layer metrics and the tracer that holds the spans.
func replay(ctx context.Context, base string, w *workload, seed int64, limit int, deadline time.Time) (map[string]metric, *obs.Tracer, int, error) {
	c := newClient(base, 1)
	chk := newChecker(w)
	rp := newReplayer()
	for _, req := range instances(w, seed) {
		if _, err := rp.solve(nil, &req); err != nil {
			return nil, nil, 0, fmt.Errorf("fill replay cache: %w", err)
		}
	}
	tr := obs.NewTracer()
	st := newStream(w, seed, saltClosed)
	var unloaded, overhead []float64
	var unloadedTotal time.Duration
	for i := 0; i < limit && obs.Now().Before(deadline); i++ {
		req := st.next()
		start := obs.Now()
		s := exchange(ctx, c, chk, req)
		lat := obs.Since(start)
		if !s.ok() {
			return nil, nil, i + 1, fmt.Errorf("replayed request %d (%+v): %w", i, req, s.err)
		}
		root := tr.Start(spanRequest)
		d, err := rp.solve(root, &req)
		root.End()
		if err == nil {
			err = crossCheck(s.resp, d)
		}
		if err != nil {
			return nil, nil, i + 1, fmt.Errorf("cross-check of replayed request %d (%+v): %w", i, req, err)
		}
		unloaded = append(unloaded, ms(lat))
		unloadedTotal += lat
		overhead = append(overhead, ms(lat-time.Duration(s.resp.ElapsedNS)-d.generate-d.build))
	}
	if len(unloaded) == 0 {
		return nil, nil, 0, errors.New("traced run replayed no request")
	}

	type layer struct{ calls, ns, edges int64 }
	layers := map[string]*layer{}
	var decomposed int64
	for _, rec := range tr.Records() {
		if rec.Name == spanRequest {
			continue
		}
		l := layers[rec.Name]
		if l == nil {
			l = &layer{}
			layers[rec.Name] = l
		}
		l.calls++
		l.ns += rec.DurNs
		l.edges += rec.Attrs[attrEdges]
		decomposed += rec.DurNs
	}
	get := func(name string) layer {
		if l := layers[name]; l != nil {
			return *l
		}
		return layer{}
	}
	meanMS := func(name string) float64 {
		l := get(name)
		return ratio(float64(l.ns), float64(l.calls)) / 1e6
	}
	build, verified, approx := get(spanBuild), get(spanVerify), get(spanApprox)
	m := map[string]metric{
		"serve.unloaded_p50_ms":    {quantile(unloaded, 0.5), "ms"},
		"serve.overhead_p50_ms":    {quantile(overhead, 0.5), "ms"},
		"workload.generate_ms":     {meanMS(spanGenerate), "ms"},
		"join.build_ms":            {meanMS(spanBuild), "ms"},
		"join.build_ns_per_edge":   {ratio(float64(build.ns), float64(build.edges)), "ns/edge"},
		"join.build_share":         {ratio(float64(build.ns), float64(decomposed)), "fraction"},
		"engine.plan_ms":           {meanMS(spanPlan), "ms"},
		"graph.canon_ms":           {meanMS(spanCanon), "ms"},
		"schemecache.get_ms":       {meanMS(spanCacheGet), "ms"},
		"schemecache.translate_ms": {meanMS(spanTranslate), "ms"},
		"schemecache.insert_ms":    {meanMS(spanInsert), "ms"},
		"solver.equijoin_ms":       {meanMS(spanEquijoin), "ms"},
		"solver.approx125_ms":      {meanMS(spanApprox), "ms"},
		"solver.approx125_share":   {ratio(float64(approx.ns), float64(decomposed)), "fraction"},
		"core.verify_ms":           {meanMS(spanVerify), "ms"},
		"core.verify_ns_per_edge":  {ratio(float64(verified.ns), float64(verified.edges)), "ns/edge"},
		"trace.coverage":           {ratio(float64(decomposed), float64(unloadedTotal)), "fraction"},
	}
	return m, tr, len(unloaded), nil
}

// writeChromeTrace writes the replay's spans where cmd/obsreport trace
// and Perfetto can read them.
func writeChromeTrace(dir, name string, tr *obs.Tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "pebblebench-"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
