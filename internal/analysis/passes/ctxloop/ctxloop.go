// Package ctxloop enforces the cancellation cadence of search loops in
// internal/tsp, internal/solver, and internal/graph: any loop (or
// self-recursive function) that expands search state — identified by
// calling faultinject.Fire, which the repo places exactly at expansion
// checkpoints — must also consult ctx.Err or ctx.Done, and if the check
// sits behind a stride guard (`x&mask == 0` or `x%n == 0`), the stride
// must be bounded (<= MaxStride), so a canceled context unwinds within
// a bounded number of expansions (DESIGN.md "Cancellation").
package ctxloop

import (
	"go/ast"
	"go/token"
	"go/types"

	"joinpebble/internal/analysis"
)

// MaxStride is the largest tolerated gap between cancellation checks,
// in loop iterations / recursive expansions. The repo's checkpointMask
// (0x3FF, stride 1024) sits comfortably under it; the cap exists so a
// future "tune the mask" change cannot silently make cancellation
// latency unbounded in practice.
const MaxStride = 4096

// scopedPkgs are the packages whose loops do search expansion — the TSP
// and solver search trees, the serve package's retry/arrival loops and
// the scheme cache's CLOCK eviction sweep, all of which carry
// faultinject checkpoints — plus the graph package, which has none
// today, so a checkpoint added to a graph kernel is held to the same
// discipline.
var scopedPkgs = map[string]bool{
	"joinpebble/internal/tsp":         true,
	"joinpebble/internal/solver":      true,
	"joinpebble/internal/graph":       true,
	"joinpebble/internal/serve":       true,
	"joinpebble/internal/schemecache": true,
}

// Analyzer is the ctxloop pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxloop",
	Doc:  "search-expansion loops must check ctx.Err/Done within a bounded stride",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !scopedPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		// Map closures to the variable they are assigned to, so
		// self-recursion through `var dfs func(...); dfs = func...`
		// is visible.
		litVar := closureVars(pass.TypesInfo, file)
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var self types.Object
			var pos token.Pos
			var what string
			switch n := n.(type) {
			case *ast.FuncDecl:
				body, self, pos, what = n.Body, pass.TypesInfo.Defs[n.Name], n.Pos(), "function "+n.Name.Name
			case *ast.FuncLit:
				self = litVar[n]
				name := "closure"
				if self != nil {
					name = "closure " + self.Name()
				}
				body, pos, what = n.Body, n.Pos(), name
			default:
				return true
			}
			if body == nil {
				return true
			}
			checkFunc(pass, body, self, pos, what)
			return true
		})
	}
	return nil
}

// checkFunc applies both rules to one function body: every loop that
// fires an expansion checkpoint needs an in-loop cancellation check,
// and a self-recursive function that fires one needs a check in its
// own body (its loops may just recurse, as in a depth-first search).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, self types.Object, pos token.Pos, what string) {
	info := pass.TypesInfo

	if self != nil {
		rec := scanRegion(info, body, self)
		if rec.recurses && len(rec.fires) > 0 {
			reportRegion(pass, rec, pos, "self-recursive "+what)
		}
	}

	analysis.WithStack(body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // analyzed on its own
		}
		var loopBody *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			loopBody = n.Body
		case *ast.RangeStmt:
			loopBody = n.Body
		default:
			return true
		}
		res := scanRegion(info, loopBody, nil)
		if len(res.fires) > 0 {
			reportRegion(pass, res, n.Pos(), "loop in "+what)
		}
		return true
	})
}

func reportRegion(pass *analysis.Pass, res regionScan, pos token.Pos, what string) {
	if len(res.checks) == 0 {
		pass.Reportf(pos, "%s calls faultinject.Fire (search expansion) but never checks ctx.Err or ctx.Done", what)
		return
	}
	best := res.checks[0]
	for _, c := range res.checks[1:] {
		if c.stride < best.stride {
			best = c
		}
	}
	if best.stride > MaxStride {
		pass.Reportf(best.pos, "%s checks cancellation only every %d expansions; bound the stride to at most %d", what, best.stride, MaxStride)
	}
}

type ctxCheck struct {
	pos    token.Pos
	stride int64
}

type regionScan struct {
	fires    []token.Pos
	checks   []ctxCheck
	recurses bool
}

// scanRegion walks a loop or function body (skipping nested function
// literals) collecting faultinject.Fire calls, ctx.Err/Done calls with
// their guard strides, and — when self is non-nil — calls back to self.
func scanRegion(info *types.Info, body *ast.BlockStmt, self types.Object) regionScan {
	var res regionScan
	analysis.WithStack(body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if self != nil {
			if obj := analysis.UsedObject(info, call.Fun); obj == self {
				res.recurses = true
			}
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil {
			return true
		}
		// FireContext is a fire, not a check: it selects on ctx only
		// when a site is armed with a delay, so a disarmed run would
		// never observe cancellation through it.
		if analysis.FuncIs(fn, "joinpebble/internal/faultinject", "", "Fire") ||
			analysis.FuncIs(fn, "joinpebble/internal/faultinject", "", "FireContext") {
			res.fires = append(res.fires, call.Pos())
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "context" && (fn.Name() == "Err" || fn.Name() == "Done") {
			res.checks = append(res.checks, ctxCheck{pos: call.Pos(), stride: guardStride(info, stack, body)})
		}
		return true
	})
	return res
}

// guardStride multiplies the strides of every enclosing mask/modulo
// guard between the check and the region root: `x&K == 0` passes one
// iteration in K+1, `x%N == 0` one in N. An unguarded check (or one
// behind guards this can't decode) counts as stride 1 — the analyzer
// only flags strides it can prove too large.
func guardStride(info *types.Info, stack []ast.Node, root ast.Node) int64 {
	stride := int64(1)
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == root {
			break
		}
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		if s := condStride(info, ifs.Cond); s > 1 {
			stride *= s
		}
	}
	return stride
}

// condStride decodes `expr & K == 0` (stride K+1, for power-of-two-minus-
// one masks) and `expr % N == 0` (stride N); anything else is 1.
func condStride(info *types.Info, cond ast.Expr) int64 {
	eq, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || eq.Op != token.EQL {
		return 1
	}
	inner, zero := eq.X, eq.Y
	if v, ok := analysis.ConstInt(info, inner); ok && v == 0 {
		inner, zero = eq.Y, eq.X
	}
	if v, ok := analysis.ConstInt(info, zero); !ok || v != 0 {
		return 1
	}
	bin, ok := ast.Unparen(inner).(*ast.BinaryExpr)
	if !ok {
		return 1
	}
	k, ok := analysis.ConstInt(info, bin.Y)
	if !ok {
		if k, ok = analysis.ConstInt(info, bin.X); !ok {
			return 1
		}
	}
	switch bin.Op {
	case token.AND:
		return k + 1
	case token.REM:
		return k
	}
	return 1
}

// closureVars maps each function literal in file to the variable it is
// assigned to (via :=, =, or var decl), when that target is a plain
// identifier — enough to see `var dfs func(...); dfs = func(...)`.
func closureVars(info *types.Info, file *ast.File) map[*ast.FuncLit]types.Object {
	m := map[*ast.FuncLit]types.Object{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		lit, ok := rhs.(*ast.FuncLit)
		if !ok {
			return
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			m[lit] = obj
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return m
}
