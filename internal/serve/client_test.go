package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"joinpebble/internal/obs"
)

// fakeServer scripts a sequence of statuses; after the script runs out
// it answers 200 with an empty SolveResponse.
func fakeServer(t *testing.T, script []int, retryAfterMS int64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if int(n) <= len(script) {
			code := script[n-1]
			w.Header().Set("Content-Type", "application/json")
			if retryAfterMS > 0 {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "scripted", RetryAfterMS: retryAfterMS}) //nolint:errcheck // test server
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(SolveResponse{Family: "equijoin"}) //nolint:errcheck // test server
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// TestClientRetriesOverloadHonoringRetryAfter pins the client half of
// the admission contract: a 429 with a retry hint is retried after at
// least the advertised wait (modulo the -50% jitter bound).
func TestClientRetriesOverloadHonoringRetryAfter(t *testing.T) {
	srv, calls := fakeServer(t, []int{http.StatusTooManyRequests}, 60)
	c := NewClient(srv.URL, 42)

	start := obs.Now()
	resp, st, err := c.Solve(context.Background(), &SolveRequest{Family: "equijoin", Left: 4, Right: 4})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if resp.Family != "equijoin" {
		t.Errorf("response family = %q", resp.Family)
	}
	if st.Attempts != 2 || st.Rejected != 1 {
		t.Errorf("stats = %+v, want 2 attempts / 1 rejected", st)
	}
	if calls.Load() != 2 {
		t.Errorf("server saw %d calls, want 2", calls.Load())
	}
	// Jitter scales the wait by [0.5, 1.5); 60ms advertised ⇒ ≥ 30ms.
	if d := obs.Since(start); d < 30*time.Millisecond {
		t.Errorf("retry after %v, want >= 30ms (advertised 60ms, jitter floor 0.5x)", d)
	}
}

// TestClientRetries503 pins that transient 503s are retried too.
func TestClientRetries503(t *testing.T) {
	srv, _ := fakeServer(t, []int{http.StatusServiceUnavailable}, 5)
	c := NewClient(srv.URL, 1)
	if _, st, err := c.Solve(context.Background(), &SolveRequest{Family: "equijoin", Left: 4, Right: 4}); err != nil {
		t.Fatalf("Solve: %v", err)
	} else if st.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", st.Attempts)
	}
}

// TestClientTerminalErrorsDoNotRetry pins that 400s are terminal: one
// call, a StatusError back.
func TestClientTerminalErrorsDoNotRetry(t *testing.T) {
	srv, calls := fakeServer(t, []int{http.StatusBadRequest}, 0)
	c := NewClient(srv.URL, 1)
	_, st, err := c.Solve(context.Background(), &SolveRequest{})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if st.Attempts != 1 || calls.Load() != 1 {
		t.Errorf("attempts = %d, calls = %d, want 1/1", st.Attempts, calls.Load())
	}
}

// TestClientRetriesAreBudgetBounded pins that the caller's context
// bounds the whole call, backoff sleeps included.
func TestClientRetriesAreBudgetBounded(t *testing.T) {
	srv, _ := fakeServer(t, []int{429, 429, 429, 429, 429, 429}, 5000)
	c := NewClient(srv.URL, 7)
	c.MaxAttempts = 10

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := obs.Now()
	_, _, err := c.Solve(ctx, &SolveRequest{Family: "equijoin", Left: 4, Right: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := obs.Since(start); d > time.Second {
		t.Errorf("budget-bounded call took %v, want ~80ms", d)
	}
}

// TestClientExhaustsRetries pins the give-up path: a server that only
// ever answers 429 costs MaxAttempts tries and reports the rejection.
func TestClientExhaustsRetries(t *testing.T) {
	srv, calls := fakeServer(t, []int{429, 429, 429, 429, 429, 429, 429, 429}, 1)
	c := NewClient(srv.URL, 3)
	c.MaxAttempts = 3

	_, st, err := c.Solve(context.Background(), &SolveRequest{Family: "equijoin", Left: 4, Right: 4})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want wrapped StatusError 429", err)
	}
	if st.Attempts != 3 || st.Rejected != 3 {
		t.Errorf("stats = %+v, want 3 attempts / 3 rejected", st)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3", calls.Load())
	}
}
