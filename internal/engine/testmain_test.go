package engine

import (
	"os"
	"testing"

	"joinpebble/internal/testutil/leakcheck"
)

// TestMain gates the suite on goroutine hygiene: no goroutine a test
// starts, or that a planner run starts under it, may outlive the suite
// (the dynamic side of the golife analyzer's static rule).
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
