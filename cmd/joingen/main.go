// Command joingen generates join workloads and their join graphs
// through the engine's workload → instance pipeline.
//
// Usage:
//
//	joingen -kind equijoin    [-left 100 -right 100 -domain 20 -skew 0.5] [-seed 1] [-out graph|relations|dot|plan]
//	joingen -kind containment [-left 50 -right 50 -universe 200 -leftmax 3 -rightmax 8 -correlated]
//	joingen -kind spatial     [-left 100 -right 100 -span 100 -extent 5 -clusters 0]
//	joingen -kind spider      [-n 5]
//
// With -out graph (default) it writes the join graph in the text format
// cmd/pebble reads; -out relations writes the two relations; -out dot
// writes Graphviz; -out plan prints the engine planner's routing
// decision for the instance without solving it; -out solve runs the
// full engine pipeline on the generated instance ( -solver overrides
// the routing) and prints the same summary as cmd/pebble — including
// the DEGRADED provenance line when the ladder engaged, suppressed by
// -strict in favor of a non-zero exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"joinpebble/internal/engine"
	"joinpebble/internal/engine/cmdutil"
	"joinpebble/internal/family"
	"joinpebble/internal/graph"
	"joinpebble/internal/solver"
	"joinpebble/internal/workload"
)

// config carries the parsed flags; one field per workload knob.
type config struct {
	kind, out  string
	seed       int64
	left       int
	right      int
	domain     int64
	skew       float64
	universe   int
	leftMax    int
	rightMax   int
	correlated bool
	span       float64
	extent     float64
	clusters   int
	n          int
	solver     string
	strict     bool
}

func main() {
	var c config
	flag.StringVar(&c.kind, "kind", "equijoin", "workload: equijoin, containment, spatial, spider")
	flag.StringVar(&c.out, "out", "graph", "output: graph (join graph), relations, dot (Graphviz), plan (engine routing), or solve (run the engine)")
	flag.StringVar(&c.solver, "solver", "auto", "with -out solve: override the engine routing")
	flag.Int64Var(&c.seed, "seed", 1, "generator seed")
	flag.IntVar(&c.left, "left", 100, "left relation size")
	flag.IntVar(&c.right, "right", 100, "right relation size")
	flag.Int64Var(&c.domain, "domain", 20, "equijoin: distinct values")
	flag.Float64Var(&c.skew, "skew", 0, "equijoin: zipf skew (0 = uniform)")
	flag.IntVar(&c.universe, "universe", 200, "containment: element universe")
	flag.IntVar(&c.leftMax, "leftmax", 3, "containment: max probe-set size")
	flag.IntVar(&c.rightMax, "rightmax", 8, "containment: max stored-set size")
	flag.BoolVar(&c.correlated, "correlated", true, "containment: draw probes as subsets of stored sets")
	flag.Float64Var(&c.span, "span", 100, "spatial: universe side length")
	flag.Float64Var(&c.extent, "extent", 5, "spatial: max rectangle side")
	flag.IntVar(&c.clusters, "clusters", 0, "spatial: cluster count (0 = uniform)")
	flag.IntVar(&c.n, "n", 5, "spider: family parameter")
	strict := cmdutil.BindStrict(flag.CommandLine)
	obsFlags := cmdutil.BindFlags(flag.CommandLine, "joingen", false)
	flag.Parse()
	c.strict = *strict

	if err := obsFlags.Start(); err != nil {
		cmdutil.Exit("joingen", err)
	}
	if flag.NArg() > 0 {
		cmdutil.Exit("joingen", cmdutil.Usagef("unexpected arguments %v", flag.Args()))
	}
	err := run(os.Stdout, c)
	if err == nil {
		err = obsFlags.Finish()
	}
	cmdutil.Exit("joingen", err)
}

// instance builds the engine instance the flags describe. The workload
// structs carry their own family names, so the engine resolves the
// predicate and builds the join graph — no per-predicate graph plumbing
// here.
func (c config) instance() (*engine.Instance, error) {
	var w engine.Workload
	switch c.kind {
	case "equijoin":
		w = workload.Equijoin{LeftSize: c.left, RightSize: c.right, Domain: c.domain, Skew: c.skew}
	case "containment":
		w = workload.SetContainment{LeftSize: c.left, RightSize: c.right, Universe: c.universe,
			LeftMax: c.leftMax, RightMax: c.rightMax, Correlated: c.correlated}
	case "spatial":
		w = workload.Spatial{LeftSize: c.left, RightSize: c.right, Span: c.span,
			MaxExtent: c.extent, Clusters: c.clusters}
	case "spider":
		return engine.FromBipartite("spider", family.Spider(c.n)), nil
	default:
		return nil, cmdutil.Usagef("unknown kind %q", c.kind)
	}
	return engine.Generate(w, c.seed)
}

func run(w io.Writer, c config) error {
	inst, err := c.instance()
	if err != nil {
		return err
	}
	switch c.out {
	case "graph":
		return graph.WriteBipartite(w, inst.Bip)
	case "dot":
		return graph.WriteDOTBipartite(w, inst.Bip, "JoinGraph")
	case "relations":
		if inst.Left == nil {
			return cmdutil.Usagef("kind %q has no relation output; use -out graph", c.kind)
		}
		if err := inst.Left.Write(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return inst.Right.Write(w)
	case "plan":
		planner := engine.Planner{}
		plan := planner.Plan(inst)
		g := inst.Graph()
		fmt.Fprintf(w, "family     %s\n", inst.Family)
		fmt.Fprintf(w, "size       %d vertices, %d edges\n", g.N(), g.M())
		fmt.Fprintf(w, "route      %s\n", plan.Route)
		fmt.Fprintf(w, "solver     %s\n", plan.Solver.Name())
		fmt.Fprintf(w, "reason     %s\n", plan.Reason)
		return nil
	case "solve":
		s, err := solver.ByName(c.solver)
		if err != nil {
			return cmdutil.Usagef("%v", err)
		}
		planner := engine.Planner{Solver: s, Degrade: cmdutil.Degrade(c.strict)}
		res, err := planner.Run(context.Background(), inst)
		if err != nil {
			return err
		}
		cmdutil.WriteResult(w, res, false)
		return nil
	}
	return cmdutil.Usagef("unknown output %q", c.out)
}
