package cmdutil

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"joinpebble/internal/engine"
	"joinpebble/internal/obs"
)

func TestUsageErrorClassification(t *testing.T) {
	usage := Usagef("bad flag %q", "x")
	if !IsUsage(usage) {
		t.Fatal("Usagef result must classify as usage")
	}
	if !IsUsage(fmt.Errorf("outer: %w", usage)) {
		t.Fatal("IsUsage must see through %w wrapping")
	}
	if IsUsage(errors.New("runtime failure")) {
		t.Fatal("plain errors are not usage errors")
	}
	if usage.Error() != `bad flag "x"` {
		t.Fatalf("message = %q", usage.Error())
	}
}

func TestExitCodePolicy(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{Usagef("bad"), 2},
		{fmt.Errorf("wrap: %w", Usagef("bad")), 2},
		{errors.New("boom"), 1},
	} {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestExitNilIsNoOp(t *testing.T) {
	called := false
	osExit = func(int) { called = true }
	defer func() { osExit = os.Exit }()
	Exit("test", nil)
	if called {
		t.Fatal("Exit(nil) must not exit")
	}
}

func TestBindFlagsAndFinish(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := BindFlags(fs, "test", false)
	if fs.Lookup("metrics") == nil || fs.Lookup("trace-out") == nil {
		t.Fatal("metrics/trace-out flags not registered")
	}
	if fs.Lookup("pprof") != nil {
		t.Fatal("pprof must be opt-in")
	}
	mpath := filepath.Join(t.TempDir(), "m.json")
	if err := fs.Parse([]string{"-metrics", mpath}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("-metrics file is not a snapshot: %v", err)
	}
}

// TestCacheSizeFlag pins the one scheme-cache knob: a positive
// -cache-size installs a shared cache of that capacity, and
// -cache-size 0 then leaves none installed.
func TestCacheSizeFlag(t *testing.T) {
	prev := engine.SharedCache()
	defer engine.SetSharedCache(prev)
	for _, tc := range []struct {
		size string
		want int64 // installed capacity; 0 means no cache
	}{
		{"1MiB", 1 << 20},
		{"0", 0},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		o := BindFlags(fs, "test", false)
		if err := fs.Parse([]string{"-cache-size", tc.size}); err != nil {
			t.Fatal(err)
		}
		if err := o.Start(); err != nil {
			t.Fatal(err)
		}
		c := engine.SharedCache()
		switch {
		case tc.want == 0 && c != nil:
			t.Errorf("-cache-size %s installed a cache", tc.size)
		case tc.want > 0 && c == nil:
			t.Errorf("-cache-size %s installed no cache", tc.size)
		case tc.want > 0 && c.Stats().Capacity != tc.want:
			t.Errorf("-cache-size %s capacity = %d, want %d", tc.size, c.Stats().Capacity, tc.want)
		}
	}
}
