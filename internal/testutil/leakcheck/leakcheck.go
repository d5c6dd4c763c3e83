// Package leakcheck verifies at test end that no goroutines leaked,
// cross-checking the static golife lint dynamically. It is a small
// goleak: snapshot the live goroutines, run the test, then retry with
// backoff until every goroutine that is neither in the snapshot nor on
// the allowlist has exited.
//
// Two entry points:
//
//   - Check(t) at the top of a test snapshots the current goroutines
//     and registers a cleanup that fails the test if *new* goroutines
//     survive it. Because only goroutines started after the snapshot
//     count, suites whose TestMain or sibling tests keep daemons alive
//     can still use it.
//   - Main(m) in TestMain verifies the whole package: after m.Run()
//     returns cleanly it fails the run if anything beyond the baseline
//     captured at startup is still alive.
//
// The allowlist covers the runtime/testing machinery that legitimately
// outlives tests. Test-specific exceptions use Ignore:
//
//	defer leakcheck.Check(t, leakcheck.Ignore("obshttp.(*Server).serve"))
package leakcheck

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"
)

// TB is the subset of testing.TB leakcheck needs; taking the interface
// keeps the package out of test binaries' public API and lets the
// self-test substitute a recorder.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// Option adjusts one verification.
type Option func(*config)

type config struct {
	ignores  []string
	deadline time.Duration
}

// Ignore tolerates goroutines whose stack contains substr (typically a
// function name like "pkg.(*Type).method").
func Ignore(substr string) Option {
	return func(c *config) { c.ignores = append(c.ignores, substr) }
}

// Deadline overrides how long verification retries before failing
// (default 2s — generous because -race schedules exits late).
func Deadline(d time.Duration) Option {
	return func(c *config) { c.deadline = d }
}

// allowlist matches goroutines owned by the runtime and test machinery.
var allowlist = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*T).Run(",
	"testing.(*M).",
	"testing.runTests",
	"testing.RunTests",
	"runtime.goexit",
	"runtime.MHeap_Scavenger",
	"runtime.gc",
	"runtime/trace",
	"signal.signal_recv",
	"sigterm.handler",
	"os/signal.loop",
	"os/signal.NotifyContext",
	"runtime.ensureSigM",
	"interestingGoroutines", // our own collector
	"created by runtime",
	"net/http.(*persistConn)", // reaped via CloseIdleConnections before verify
	"net/http.setupRewindBody",
}

// Check snapshots the current goroutines and registers a cleanup that
// fails t if goroutines created after this point are still running when
// the test (and any cleanups registered after it) finish.
func Check(t TB, opts ...Option) {
	t.Helper()
	baseline := liveGoroutineIDs()
	t.Cleanup(func() {
		verify(t, baseline, opts...)
	})
}

// Main wraps testing.M.Run for TestMain functions:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Goroutines alive before any test runs (package init daemons) form the
// baseline; a non-zero exit from the tests is passed through unchanged
// without leak checking (the failure is already being reported).
func Main(m interface{ Run() int }, opts ...Option) int {
	baseline := liveGoroutineIDs()
	code := m.Run()
	if code != 0 {
		return code
	}
	rec := &recorder{}
	verify(rec, baseline, opts...)
	if len(rec.errs) > 0 {
		for _, e := range rec.errs {
			fmt.Println(e)
		}
		return 1
	}
	return 0
}

// recorder is the minimal TB used by Main (and the self-test).
type recorder struct{ errs []string }

func (r *recorder) Helper()        {}
func (r *recorder) Cleanup(func()) {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func verify(t TB, baseline map[string]bool, opts ...Option) {
	t.Helper()
	cfg := &config{deadline: 2 * time.Second}
	for _, o := range opts {
		o(cfg)
	}
	// Idle HTTP keep-alive connections hold goroutines that are not
	// leaks; reap them before judging.
	http.DefaultClient.CloseIdleConnections()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}

	var leaked []goroutine
	//joinlint:ignore forbidden the retry deadline races real goroutine exits; an injected clock would defeat the backoff
	deadline := time.Now().Add(cfg.deadline)
	for delay := 1 * time.Millisecond; ; delay *= 2 {
		leaked = leaked[:0]
		for _, g := range interestingGoroutines(cfg.ignores) {
			if !baseline[g.id] {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 {
			return
		}
		//joinlint:ignore forbidden see the deadline note above: wall-clock by design
		if time.Now().After(deadline) {
			break
		}
		if delay > 100*time.Millisecond {
			delay = 100 * time.Millisecond
		}
		time.Sleep(delay)
	}
	for _, g := range leaked {
		t.Errorf("leaked goroutine: %s", g.stack)
	}
}

// goroutine is one parsed entry of a full runtime stack dump.
type goroutine struct {
	id    string // "goroutine 12 [chan receive]" header — stable per goroutine
	stack string
}

// liveGoroutineIDs snapshots the IDs of every goroutine currently
// alive, with no filtering. Baselines must be unfiltered: a goroutine
// that is brand-new at snapshot time tracebacks as runtime.goexit
// (which the allowlist matches) yet shows its real frames once running,
// so a filtered baseline would later misreport it as a leak.
func liveGoroutineIDs() map[string]bool {
	ids := map[string]bool{}
	for _, g := range allGoroutines() {
		ids[g.id] = true
	}
	return ids
}

// allGoroutines dumps and parses every goroutine stack except the
// calling goroutine's.
func allGoroutines() []goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []goroutine
	for i, dump := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // first entry is the calling goroutine
		}
		dump = strings.TrimSpace(dump)
		if dump == "" {
			continue
		}
		header, _, _ := strings.Cut(dump, "\n")
		out = append(out, goroutine{id: strings.Fields(header)[1], stack: dump})
	}
	return out
}

// interestingGoroutines returns the live goroutines not matched by the
// allowlist or extra ignore patterns, excluding the calling goroutine.
func interestingGoroutines(ignores []string) []goroutine {
	var out []goroutine
	for _, g := range allGoroutines() {
		if skip(g.stack) || skipAny(g.stack, ignores) {
			continue
		}
		out = append(out, g)
	}
	return out
}

func skip(dump string) bool { return skipAny(dump, allowlist) }
func skipAny(dump string, pats []string) bool {
	for _, p := range pats {
		if strings.Contains(dump, p) {
			return true
		}
	}
	return false
}
