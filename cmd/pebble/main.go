// Command pebble solves the PEBBLE problem (Definition 4.1) for a graph
// read from a file or stdin in the text format of internal/graph:
//
//	bipartite <nLeft> <nRight>   (or: graph <n>)
//	e <u> <v>                    (one per edge)
//
// Usage:
//
//	pebble [-solver auto] [-scheme] [file]
//
// The instance flows through the engine pipeline: it is ingested as an
// engine.Instance and routed by the Planner (perfect pebbler on
// complete-bipartite components, exact under budget, 1.25-approximation
// otherwise); -solver overrides the routing. The output reports the
// verified pebbling cost π̂, the effective cost π, the Lemma 2.1 bounds,
// the route taken, and whether the scheme is perfect; -scheme also
// prints the configuration sequence.
//
// When the planned solver fails recoverably (search budget, deadline,
// recovered panic) the engine degrades to the Theorem 3.1 approximation
// or the Lemma 2.1 naive scheme: the run still exits 0 and the output
// carries a "DEGRADED (exact→approx-1.25: <reason>)" provenance line.
// -strict disables the ladder: the failure surfaces on stderr with its
// solver sentinel text and a non-zero exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"joinpebble/internal/engine"
	"joinpebble/internal/engine/cmdutil"
	"joinpebble/internal/graph"
	"joinpebble/internal/solver"
)

func main() {
	solverName := flag.String("solver", "auto", "solver: auto routes via the engine planner; see -solver help for names")
	showScheme := flag.Bool("scheme", false, "print the full configuration sequence")
	decideK := flag.Int("decide", -1, "answer PEBBLE(D): is π(G) <= K? (-1 disables)")
	strict := cmdutil.BindStrict(flag.CommandLine)
	obsFlags := cmdutil.BindFlags(flag.CommandLine, "pebble", false)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pebble [flags] [file]\nreads the graph from stdin when no file is given\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if err := obsFlags.Start(); err != nil {
		cmdutil.Exit("pebble", err)
	}
	if flag.NArg() > 1 {
		cmdutil.Exit("pebble", cmdutil.Usagef("at most one input file, got %d args", flag.NArg()))
	}
	err := run(os.Stdout, *solverName, *showScheme, *strict, *decideK, flag.Arg(0))
	if err == nil {
		err = obsFlags.Finish()
	}
	cmdutil.Exit("pebble", err)
}

func run(w io.Writer, solverName string, showScheme, strict bool, decideK int, path string) error {
	in, err := readInstance(path)
	if err != nil {
		return err
	}

	s, err := solver.ByName(solverName)
	if err != nil {
		return cmdutil.Usagef("%v", err)
	}
	planner := engine.Planner{Solver: s, Degrade: cmdutil.Degrade(strict)}

	if decideK >= 0 {
		ok, err := planner.Decide(context.Background(), in, decideK)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "PEBBLE(D): π(G) <= %d is %v\n", decideK, ok)
		return nil
	}

	res, err := planner.Run(context.Background(), in)
	if err != nil {
		return err
	}
	cmdutil.WriteResult(w, res, showScheme)
	return nil
}

// readInstance ingests the graph from path (stdin when empty) as an
// engine instance: bipartite inputs keep their join-graph structure,
// general graphs flow in unguaranteed.
func readInstance(path string) (*engine.Instance, error) {
	var in io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	v, err := graph.Read(in)
	if err != nil {
		return nil, err
	}
	switch t := v.(type) {
	case *graph.Bipartite:
		return engine.FromBipartite("bipartite", t), nil
	case *graph.Graph:
		return engine.FromGraph(t), nil
	}
	return nil, fmt.Errorf("pebble: unsupported input type %T", v)
}
