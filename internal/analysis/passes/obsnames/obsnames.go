// Package obsnames pins the observability naming contract: every
// counter, histogram, timer, and span name handed to internal/obs must
// be a compile-time constant (so the metric surface is greppable and
// the exporter schema is static), must match the repo's name grammar,
// and metric names must be globally unique across packages.
//
// Grammar: metric names match ^[a-z0-9_/]+$ (DESIGN.md "Metric
// naming"). Span names additionally allow '+', '-', '.', '(' and ')'
// because solver display names like "greedy+2opt" and
// "approx-1.25(no-twin-elim)" double as root span names.
//
// One level of constant propagation is built in: when a name argument
// is a parameter of an unexported function (the solvePerComponent
// pattern), the analyzer validates the argument at every in-package
// call site instead.
//
// Cross-package uniqueness runs over analysis facts: each package
// exports the metric names it registers, and the Finish hook reports
// any name claimed by more than one package.
package obsnames

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"

	"joinpebble/internal/analysis"
)

// Analyzer is the obsnames pass.
var Analyzer = &analysis.Analyzer{
	Name:   "obsnames",
	Doc:    "obs metric and span names must be constant, well-formed, and (for metrics) globally unique",
	Run:    run,
	Finish: finish,
}

var (
	// MetricNameRE is the grammar for counter/histogram/timer names.
	MetricNameRE = regexp.MustCompile(`^[a-z0-9_/]+$`)
	// SpanNameRE is the grammar for span names; the extra characters
	// admit the solver display names ("greedy+2opt", "path-cover",
	// "approx-1.25(no-twin-elim)") that double as root spans.
	SpanNameRE = regexp.MustCompile(`^[a-z0-9_/+\-.()]+$`)
)

const obsPath = "joinpebble/internal/obs"

// nameSink describes one obs entry point taking a name in arg position
// arg (StartSpanCtx takes its context first, so its name is arg 1).
type nameSink struct {
	recv, name string
	kind       string // "counter", "histogram", "timer", "span"
	arg        int
}

var sinks = []nameSink{
	{"Registry", "Counter", "counter", 0},
	{"Registry", "Histogram", "histogram", 0},
	{"Registry", "Timer", "timer", 0},
	{"Tracer", "Start", "span", 0},
	{"Span", "Start", "span", 0},
	// The scope surface: scope-aware metric forwarders register their
	// (global) names at var-decl time, scope names double as span-style
	// identifiers, and context spans take the name after the ctx.
	{"", "ScopedCounter", "counter", 0},
	{"", "ScopedTimer", "timer", 0},
	{"", "ScopedHistogram", "histogram", 0},
	{"", "NewScope", "span", 0},
	{"", "StartSpanCtx", "span", 1},
	{"Scope", "StartSpan", "span", 0},
}

func sinkFor(fn *types.Func) (nameSink, bool) {
	for _, s := range sinks {
		if analysis.FuncIs(fn, obsPath, s.recv, s.name) {
			return s, true
		}
	}
	return nameSink{}, false
}

// metricDef is one registered metric, exported as a fact for the
// global uniqueness check.
type metricDef struct {
	Name string
	Kind string
	Pos  token.Pos
}

// forwarder is an unexported function whose parameter flows into an
// obs name sink; call sites must pass constants.
type forwarder struct {
	param int
	kind  string
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == obsPath {
		// The obs package is the instrument implementation; its own
		// plumbing (StartSpanCtx -> Scope.StartSpan -> Tracer.Start)
		// forwards names by construction.
		return nil
	}
	info := pass.TypesInfo
	var defs []metricDef
	forwarders := map[*types.Func]forwarder{}

	validate := func(arg ast.Expr, kind string) {
		name, ok := analysis.ConstString(info, arg)
		if !ok {
			return // classified by the caller
		}
		re := MetricNameRE
		if kind == "span" {
			re = SpanNameRE
		}
		if !re.MatchString(name) {
			pass.Reportf(arg.Pos(), "obs %s name %q must match %s", kind, name, re)
			return
		}
		if kind != "span" {
			defs = append(defs, metricDef{Name: name, Kind: kind, Pos: arg.Pos()})
		}
	}

	// Sweep 1: direct sink calls. Constant names validate in place; a
	// name that is a parameter of an unexported function registers that
	// function as a forwarder for sweep 2; anything else is a
	// violation.
	for _, file := range pass.Files {
		analysis.WithStack(file, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sink, ok := sinkFor(analysis.CalleeFunc(info, call))
			if !ok || len(call.Args) <= sink.arg {
				return true
			}
			arg := ast.Unparen(call.Args[sink.arg])
			if _, isConst := analysis.ConstString(info, arg); isConst {
				validate(arg, sink.kind)
				return true
			}
			if fn, idx := enclosingParam(info, stack, arg); fn != nil {
				forwarders[fn] = forwarder{param: idx, kind: sink.kind}
				return true
			}
			pass.Reportf(arg.Pos(), "obs %s name must be a compile-time constant string (or a parameter of an unexported function, checked at its call sites)", sink.kind)
			return true
		})
	}

	// Sweep 2: call sites of forwarders. One level only — a forwarded
	// argument that is itself non-constant is a violation here.
	if len(forwarders) > 0 {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.CalleeFunc(info, call)
				fwd, ok := forwarders[fn]
				if !ok || fwd.param >= len(call.Args) {
					return true
				}
				arg := call.Args[fwd.param]
				if _, isConst := analysis.ConstString(info, arg); !isConst {
					pass.Reportf(arg.Pos(), "obs %s name passed to %s must be a compile-time constant string (names propagate one call level, no further)", fwd.kind, fn.Name())
					return true
				}
				validate(arg, fwd.kind)
				return true
			})
		}
	}

	if len(defs) > 0 {
		pass.ExportFact(defs)
	}
	return nil
}

// enclosingParam reports whether expr is a use of a parameter of the
// innermost enclosing function declaration, when that function is
// unexported; it returns the function object and the parameter index.
func enclosingParam(info *types.Info, stack []ast.Node, expr ast.Expr) (*types.Func, int) {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil, 0
	}
	obj, ok := info.Uses[id].(*types.Var)
	if !ok {
		return nil, 0
	}
	fd, ok := analysis.EnclosingFunc(stack).(*ast.FuncDecl)
	if !ok || fd.Name.IsExported() {
		return nil, 0
	}
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil, 0
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return fn, i
		}
	}
	return nil, 0
}

// finish reports metric names registered by more than one package.
func finish(fp *analysis.FinishPass) error {
	type site struct {
		pkg  string
		kind string
		pos  token.Pos
	}
	byName := map[string][]site{}
	for _, f := range fp.Facts {
		for _, d := range f.Fact.([]metricDef) {
			byName[d.Name] = append(byName[d.Name], site{pkg: f.Path, kind: d.Kind, pos: d.Pos})
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sites := byName[name]
		pkgs := map[string]bool{}
		for _, s := range sites {
			pkgs[s.pkg] = true
		}
		if len(pkgs) < 2 {
			continue
		}
		for _, s := range sites {
			others := make([]string, 0, len(pkgs)-1)
			for p := range pkgs {
				if p != s.pkg {
					others = append(others, p)
				}
			}
			sort.Strings(others)
			fp.Reportf(s.pos, "metric name %q is also registered by %s; metric names must be globally unique", name, joinAnd(others))
		}
	}
	return nil
}

func joinAnd(items []string) string {
	switch len(items) {
	case 0:
		return ""
	case 1:
		return items[0]
	}
	out := items[0]
	for _, it := range items[1 : len(items)-1] {
		out += ", " + it
	}
	return out + " and " + items[len(items)-1]
}
