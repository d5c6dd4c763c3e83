// Package cmdutil holds the plumbing every joinpebble command shares:
// usage-error classification with consistent exit codes, the
// -metrics/-trace-out/-pprof observability flags with their write-out
// logic, and the -cache-size scheme-cache knob.
// Keeping it beside the engine makes the four CLIs thin adapters over
// the engine pipeline instead of four diverging copies of the same glue.
package cmdutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"joinpebble/internal/engine"
	"joinpebble/internal/obs"
	"joinpebble/internal/obs/obshttp"
	"joinpebble/internal/schemecache"
)

// UsageError marks a command-line usage mistake (unknown flag value,
// bad positional argument) as opposed to a runtime failure. Commands
// exit 2 for usage errors — matching package flag's own convention —
// and 1 for everything else; Exit applies that policy.
type UsageError struct {
	msg string
}

// Error implements error.
func (e *UsageError) Error() string { return e.msg }

// Usagef builds a UsageError.
func Usagef(format string, args ...any) error {
	return &UsageError{msg: fmt.Sprintf(format, args...)}
}

// IsUsage reports whether err is (or wraps) a UsageError.
func IsUsage(err error) bool {
	var ue *UsageError
	return errors.As(err, &ue)
}

// ExitCode returns the exit code Exit would use for err: 0 for nil,
// 2 for usage errors, 1 otherwise. Split out so tests can assert the
// policy without exiting.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case IsUsage(err):
		return 2
	default:
		return 1
	}
}

// Exit prints a non-nil err as "<cmd>: <err>" on stderr and exits with
// ExitCode(err). A nil err is a no-op, so commands can end with
// cmdutil.Exit(name, run()) unconditionally.
func Exit(cmd string, err error) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	osExit(ExitCode(err))
}

// osExit is swapped out by tests.
var osExit = os.Exit

// Obs bundles the observability flags shared by the commands and writes
// the artifacts out after a run. Zero value = all outputs disabled.
type Obs struct {
	cmd       string
	Metrics   string // -metrics: JSON snapshot path
	TraceOut  string // -trace-out: per-scope Chrome traces + flight recorder dir
	PProf     string // -pprof: expvar/pprof listen address
	CacheSize string // -cache-size: scheme cache capacity (byte-size string)

	pprofSrv *obshttp.Server // live debug server; drained in Finish
}

// DefaultCacheSize is the scheme cache capacity the CLIs run with
// unless -cache-size overrides it.
const DefaultCacheSize = "64MiB"

// BindFlags registers the shared observability and scheme-cache flags
// on fs. pprof is only offered to the long-running commands
// (experiments, bench); the one-shot commands pass withPProf=false.
func BindFlags(fs *flag.FlagSet, cmd string, withPProf bool) *Obs {
	o := &Obs{cmd: cmd}
	fs.StringVar(&o.Metrics, "metrics", "", "write the metrics snapshot as JSON to this file")
	fs.StringVar(&o.TraceOut, "trace-out", "", "write per-solve Chrome traces and flightrecorder.json into this directory")
	fs.StringVar(&o.CacheSize, "cache-size", DefaultCacheSize, "scheme cache capacity in bytes (KB/MB/GB or KiB/MiB/GiB suffixes); 0 disables the cache")
	if withPProf {
		fs.StringVar(&o.PProf, "pprof", "", "serve net/http/pprof and expvar on this address")
	}
	return o
}

// ParseByteSize parses a human byte-size string: a non-negative number
// with an optional KB/MB/GB (decimal) or KiB/MiB/GiB (binary) suffix,
// or a bare byte count. Case-insensitive; "B" is accepted as bytes.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	upper := strings.ToUpper(t)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"B", 1},
	} {
		if strings.HasSuffix(upper, u.suffix) {
			mult = u.mult
			t = strings.TrimSpace(t[:len(t)-len(u.suffix)])
			break
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid byte size %q", s)
	}
	return n * mult, nil
}

// installCache installs (or, at size 0, clears) the process-wide scheme
// cache the engine's planners fall back to, per -cache-size.
func (o *Obs) installCache() error {
	size, err := ParseByteSize(o.CacheSize)
	if err != nil {
		return Usagef("-cache-size: %v", err)
	}
	if size == 0 {
		engine.SetSharedCache(nil)
		return nil
	}
	engine.SetSharedCache(schemecache.New(size, 0))
	return nil
}

// Start installs the scheme cache, trace directory, and pprof server
// the parsed flags ask for. Call it right after flag parsing, before
// any instrumented work.
func (o *Obs) Start() error {
	if err := o.installCache(); err != nil {
		return err
	}
	if o.PProf != "" {
		srv, err := obshttp.Start(o.PProf)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		o.pprofSrv = srv
		fmt.Fprintf(os.Stderr, "%s: pprof/expvar on http://%s/debug/\n", o.cmd, srv.Addr())
	}
	if o.TraceOut != "" {
		if err := os.MkdirAll(o.TraceOut, 0o755); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		obs.SetScopeTraceDir(o.TraceOut)
	}
	return nil
}

// Finish writes the metrics snapshot and flight recorder the flags
// asked for, then drains the debug server so an in-flight scrape is not
// cut off mid-response. It logs each written path to stderr so stdout
// stays pipeable.
func (o *Obs) Finish() error {
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		o.pprofSrv.Shutdown(ctx) //nolint:errcheck // best-effort drain at exit
	}()
	if o.Metrics != "" {
		if err := obs.Default.WriteJSONFile(o.Metrics); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: wrote metrics to %s\n", o.cmd, o.Metrics)
	}
	if o.TraceOut != "" {
		path := filepath.Join(o.TraceOut, "flightrecorder.json")
		if err := obs.DefaultRecorder.WriteJSONFile(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: wrote flight recorder to %s\n", o.cmd, path)
	}
	return nil
}
