package cmdutil

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"joinpebble/internal/engine"
	"joinpebble/internal/solver"
)

// BindStrict registers the shared -strict flag: degradation off, so a
// failed rung fails the command with a matchable sentinel instead of
// quietly completing on a weaker bound. The default (strict off) prints
// a DEGRADED provenance line and exits 0 — scripts that must not accept
// weaker bounds opt in to -strict and match on the non-zero exit.
func BindStrict(fs *flag.FlagSet) *bool {
	return fs.Bool("strict", false,
		"fail instead of degrading when the planned solver runs out of budget or deadline")
}

// Degrade translates the parsed -strict flag into the ladder policy.
func Degrade(strict bool) solver.LadderPolicy {
	return solver.LadderPolicy{Off: strict}
}

// DegradeNotice formats the one-line degradation provenance the solve
// commands print for a run that completed on a lower rung: the rung
// chain actually attempted and the failure behind each fall, e.g.
//
//	DEGRADED (exact→approx-1.25: solver: search budget exceeded: ...)
//
// Empty for runs that completed on the planned rung.
func DegradeNotice(res *engine.Result) string {
	if !res.Degraded {
		return ""
	}
	names := make([]string, len(res.Attempts))
	var reasons []string
	for i, a := range res.Attempts {
		names[i] = a.Solver
		if a.Err != "" {
			reasons = append(reasons, a.Err)
		}
	}
	return fmt.Sprintf("DEGRADED (%s: %s)", strings.Join(names, "→"), strings.Join(reasons, "; "))
}

// WriteResult prints the engine run summary the solve-mode commands
// share — one "key value" line per fact, the DEGRADED provenance line
// when the ladder engaged, and optionally the full scheme.
func WriteResult(w io.Writer, res *engine.Result, showScheme bool) {
	fmt.Fprintf(w, "vertices        %d\n", res.Vertices)
	fmt.Fprintf(w, "edges (m)       %d\n", res.Edges)
	fmt.Fprintf(w, "components (β₀) %d\n", res.Components)
	fmt.Fprintf(w, "family          %s\n", res.Family)
	fmt.Fprintf(w, "solver          %s\n", res.Solver)
	fmt.Fprintf(w, "route           %s   (%s)\n", res.Route, res.Reason)
	fmt.Fprintf(w, "quality         %s\n", res.Quality)
	fmt.Fprintf(w, "cost π̂          %d   (bounds: %d..%d)\n", res.Cost, res.LowerBound, res.UpperBound)
	fmt.Fprintf(w, "effective π     %d   (m = %d)\n", res.EffectiveCost, res.Edges)
	fmt.Fprintf(w, "perfect         %v\n", res.Perfect)
	if notice := DegradeNotice(res); notice != "" {
		fmt.Fprintln(w, notice)
	}
	if showScheme {
		fmt.Fprintln(w, "scheme:")
		for i, c := range res.Scheme {
			fmt.Fprintf(w, "  %4d  %v\n", i+1, c)
		}
	}
}
