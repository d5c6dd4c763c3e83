//go:build race

package solver

// raceEnabled reports whether the tests run under the race detector,
// which slows them several-fold and skews timings.
const raceEnabled = true
