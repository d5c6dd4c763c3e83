package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"joinpebble/internal/obs"
)

// buildDir holds everything the benchmark builds, inside the checkout.
const buildDir = ".bench_build"

// buildPebbled compiles ./cmd/pebbled from the working tree (the
// current directory must be the repository root) and returns the
// binary's path.
func buildPebbled(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "pebbled"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/pebbled")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build pebbled: %w", err)
	}
	return bin, nil
}

// lockedBuffer collects a child's stderr; os/exec writes it from its
// own goroutine while the benchmark reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// server is the pebbled under test: a child process the benchmark owns,
// or, in the tests, an in-process server at base.
type server struct {
	base   string
	cmd    *exec.Cmd // nil for an external server
	stderr *lockedBuffer
}

// listenPrefix is the line pebbled prints once its listener is bound.
const listenPrefix = "pebbled: serving on "

// launch starts pebbled on a free loopback port with every other flag at
// its default and waits until /readyz answers 200. With base set it only
// waits for that server's readiness.
func launch(ctx context.Context, bin, base string) (*server, error) {
	if base != "" {
		s := &server{base: strings.TrimSuffix(base, "/")}
		return s, s.awaitReady(ctx)
	}
	s := &server{stderr: &lockedBuffer{}}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0")
	s.cmd.Stderr = s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pebbled: %w", err)
	}
	if err := s.awaitListen(ctx); err != nil {
		s.kill()
		return nil, err
	}
	if err := s.awaitReady(ctx); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

const startTimeout = 10 * time.Second

func (s *server) awaitListen(ctx context.Context) error {
	deadline := obs.Now().Add(startTimeout)
	for obs.Now().Before(deadline) {
		out := s.stderr.String()
		if i := strings.Index(out, listenPrefix); i >= 0 {
			if line, _, ok := strings.Cut(out[i+len(listenPrefix):], "\n"); ok {
				s.base = strings.TrimSpace(line)
				return nil
			}
		}
		if err := pause(ctx, time.Millisecond); err != nil {
			return err
		}
	}
	return fmt.Errorf("pebbled printed no listen address within %v:\n%s", startTimeout, s.stderr.String())
}

func (s *server) awaitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := obs.Now().Add(startTimeout)
	for obs.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := pause(ctx, time.Millisecond); err != nil {
			return err
		}
	}
	return fmt.Errorf("%s/readyz not ready within %v", s.base, startTimeout)
}

// pause sleeps d unless ctx ends first.
func pause(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// counters scrapes the server's obs registry from /debug/vars.
func (s *server) counters(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /debug/vars: %w", err)
	}
	defer resp.Body.Close()
	var vars struct {
		Joinpebble struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"joinpebble"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	if vars.Joinpebble.Counters == nil {
		return nil, errors.New("/debug/vars has no joinpebble counters")
	}
	return vars.Joinpebble.Counters, nil
}

// peakRSSMB reads pebbled's peak resident set (VmHWM) in MB; ok is false
// for an external server.
func (s *server) peakRSSMB() (mb float64, ok bool, err error) {
	if s.cmd == nil {
		return 0, false, nil
	}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, found := strings.CutPrefix(sc.Text(), "VmHWM:"); found {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, false, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, true, nil
		}
	}
	return 0, false, errors.New("no VmHWM in /proc status")
}

// probe runs the host probe with pebbled stopped (SIGSTOP), so that
// nothing it does in the background, such as finishing a garbage
// collection, lands in the probe.
func (s *server) probe(conns int) (time.Duration, error) {
	if s.cmd == nil {
		return probe(conns), nil
	}
	if err := s.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return 0, fmt.Errorf("stop pebbled for the host probe: %w", err)
	}
	d := probe(conns)
	if err := s.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		return 0, fmt.Errorf("continue pebbled after the host probe: %w", err)
	}
	return d, nil
}

// drainTimeout bounds the wait for a clean exit after SIGTERM: pebbled's
// own drain deadline plus slack.
const drainTimeout = 15 * time.Second

// stop sends SIGTERM and requires a clean drain: exit status 0 and the
// "drained" line. An external server is left running.
func (s *server) stop() error {
	if s.cmd == nil {
		return nil
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("signal pebbled: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	t := time.NewTimer(drainTimeout)
	defer t.Stop()
	select {
	case err := <-done:
		s.cmd = nil
		if err != nil {
			return fmt.Errorf("pebbled did not drain cleanly: %w\n%s", err, s.stderr.String())
		}
		if !strings.Contains(s.stderr.String(), "pebbled: drained") {
			return fmt.Errorf("pebbled exited without draining:\n%s", s.stderr.String())
		}
		return nil
	case <-t.C:
		s.cmd.Process.Kill() //nolint:errcheck // already failing; Wait below reaps it
		<-done
		s.cmd = nil
		return fmt.Errorf("pebbled still running %v after SIGTERM", drainTimeout)
	}
}

// kill ends a child that is still running and waits for it; it is a
// no-op after stop.
func (s *server) kill() {
	if s == nil || s.cmd == nil {
		return
	}
	s.cmd.Process.Kill() //nolint:errcheck // the process may already be gone
	s.cmd.Wait()         //nolint:errcheck // exit status of a killed child is expected to be non-zero
	s.cmd = nil
}
