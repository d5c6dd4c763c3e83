// Package obsnamesa exercises the per-package obsnames rules plus one
// half of a cross-package duplicate.
package obsnamesa

import (
	"context"

	"joinpebble/internal/obs"
)

const goodName = "fixture/a/ops"

var (
	cGood = obs.Default.Counter(goodName)
	cDup  = obs.Default.Counter("fixture/dup/ops") // want `metric name "fixture/dup/ops" is also registered by obsnamesb`
	cBad  = obs.Default.Counter("Fixture.Ops")     // want `obs counter name "Fixture\.Ops" must match`
)

func dynamicName(alg string) *obs.Counter {
	return obs.Default.Counter("fixture/" + alg + "/ops") // want `obs counter name must be a compile-time constant string`
}

// spanName is the solvePerComponent pattern: the name parameter of an
// unexported function is validated at its call sites instead.
func spanName(name string) *obs.Span {
	return obs.StartSpanCtx(context.Background(), name)
}

func useSpans() {
	sp := spanName("greedy+2opt") // display names with + and - are legal span names
	sp.End()
	bad := spanName("Greedy 2opt") // want `obs span name "Greedy 2opt" must match`
	bad.End()
}

func forwardTwice(name string) {
	sp := spanName(name) // want `obs span name passed to spanName must be a compile-time constant string`
	sp.End()
}

func timers() *obs.Timer {
	return obs.Default.Timer("fixture/a/latency")
}

// The scope-aware surface: forwarder vars register global names at
// declaration, scope and context spans follow the span grammar.
var (
	cScoped   = obs.ScopedCounter("fixture/a/scoped_ops")
	cScopedNo = obs.ScopedCounter("Scoped.Ops") // want `obs counter name "Scoped\.Ops" must match`
	tScoped   = obs.ScopedTimer("fixture/a/scoped_latency")
	hScoped   = obs.ScopedHistogram("fixture/a/scoped_sizes", obs.Pow2Buckets(8))
)

func scopedDynamic(alg string) *obs.CounterVar {
	return obs.ScopedCounter("fixture/" + alg + "/ops") // want `obs counter name must be a compile-time constant string`
}

func useScopes(ctx context.Context) {
	sc := obs.NewScope("fixture/solve")
	bad := obs.NewScope("Fixture Solve") // want `obs span name "Fixture Solve" must match`
	bad.Close()
	sp := obs.StartSpanCtx(ctx, "fixture/ctx_span")
	sp.End()
	worse := obs.StartSpanCtx(ctx, "Fixture Ctx Span") // want `obs span name "Fixture Ctx Span" must match`
	worse.End()
	child := sc.StartSpan("fixture/child")
	child.End()
	ugly := sc.StartSpan("Fixture Child") // want `obs span name "Fixture Child" must match`
	ugly.End()
	sc.Close()
}
