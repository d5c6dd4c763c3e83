package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"joinpebble/internal/obs"
)

// TestSIGTERMRightAfterReady sends SIGTERM the moment /readyz first
// answers 200, to 20 pebbled processes. The signal handler must already
// be installed by then: every one has to drain and exit 0, never die of
// the signal's default action. The processes start ten at a time: the
// contention widens the gap between the listener opening and the rest
// of main running, which a lone start on an idle host almost never hits.
func TestSIGTERMRightAfterReady(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "pebbled")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pebbled: %v\n%s", err, out)
	}
	for batch := 0; batch < 2; batch++ {
		var wg sync.WaitGroup
		for k := 0; k < 10; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := termWhenReady(bin); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// termWhenReady starts pebbled on a free loopback port, polls /readyz
// from before the listener can be open, sends SIGTERM at the first 200
// and requires exit 0 with the "pebbled: drained" line.
func termWhenReady(bin string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	ln.Close()

	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	deadline := obs.Now().Add(10 * time.Second)
	for ready := false; !ready; {
		select {
		case err := <-done:
			return fmt.Errorf("pebbled exited before ready: %v\n%s", err, stderr.String())
		default:
		}
		if obs.Now().After(deadline) {
			cmd.Process.Kill() //nolint:errcheck // already failing; the receive below reaps it
			<-done
			return fmt.Errorf("%s/readyz never answered 200:\n%s", addr, stderr.String())
		}
		if resp, err := hc.Get("http://" + addr + "/readyz"); err == nil {
			resp.Body.Close()
			ready = resp.StatusCode == http.StatusOK
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("pebbled did not exit cleanly after SIGTERM: %v\n%s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // already failing; the receive below reaps it
		<-done
		return fmt.Errorf("pebbled still running 15s after SIGTERM:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "pebbled: drained") {
		return fmt.Errorf("pebbled exited without draining:\n%s", stderr.String())
	}
	return nil
}
