//go:build race

package workload

// raceEnabled reports whether the tests run under the race detector,
// which adds allocations of its own.
const raceEnabled = true
