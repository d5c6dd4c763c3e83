package cmdutil

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

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
