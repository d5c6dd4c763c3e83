package ctxloop_test

import (
	"testing"

	"joinpebble/internal/analysis/analysistest"
	"joinpebble/internal/analysis/passes/ctxloop"
)

func TestCtxloop(t *testing.T) {
	analysistest.Run(t, ctxloop.Analyzer,
		"joinpebble/internal/tsp",         // mirrored path: in scope
		"joinpebble/internal/graph",       // graph kernels: in scope
		"joinpebble/internal/serve",       // retry/arrival loops (PR 10 extension)
		"joinpebble/internal/schemecache", // CLOCK eviction sweep (PR 10 extension)
		"ctxloopout",                      // not a search package: ignored
	)
}
