package serve

// The retrying client: the other half of the admission-control
// contract. The server answers overload with 429 + Retry-After in
// microseconds; a well-behaved caller backs off for the advertised
// wait (or capped exponential backoff with jitter when the server gave
// none) and retries inside its own budget. cmd/loadgen and the CI
// smoke job drive pebbled exclusively through this client, so the
// backoff policy is exercised, not just documented.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"joinpebble/internal/obs"
)

// Client retry counters.
var (
	cClientRetries  = obs.Default.Counter("serve/client/retries")
	cClientRejected = obs.Default.Counter("serve/client/rejected")
)

// StatusError is a non-2xx terminal response: the status the server
// answered and its ErrorResponse body, after any retries were spent.
type StatusError struct {
	Status int
	Msg    string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: status %d: %s", e.Status, e.Msg)
}

// Client is a retrying HTTP client for the /v1 API, safe for concurrent
// use (loadgen workers share one).
type Client struct {
	// Base is the service base URL ("http://host:port").
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// MaxAttempts bounds tries per call (first try included); 0 means 4.
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff; 0 means 25ms. Doubles
	// per retry, capped at MaxBackoff (0 means 2s), jittered ±50%, and
	// overridden upward by a server Retry-After.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	//joinlint:lockrank serve-client 60
	mu  sync.Mutex
	rng *rand.Rand
}

// NewClient builds a client with the default retry policy; seed drives
// the backoff jitter, so a fixed-seed load run replays its schedule.
func NewClient(base string, seed int64) *Client {
	return &Client{Base: base, rng: rand.New(rand.NewSource(seed))}
}

// CallStats reports what one call cost: tries made and how many were
// answered with 429.
type CallStats struct {
	Attempts int
	Rejected int
}

// Solve posts req to /v1/solve with retries.
func (c *Client) Solve(ctx context.Context, req *SolveRequest) (*SolveResponse, CallStats, error) {
	var resp SolveResponse
	st, err := c.call(ctx, "/v1/solve", req, &resp)
	if err != nil {
		return nil, st, err
	}
	return &resp, st, nil
}

// call runs one logical request: post, classify, back off, retry.
// Transient answers — 429, 503, transport errors — are retried until
// MaxAttempts or ctx expires (the caller's budget bounds the whole
// call, sleeps included); everything else is terminal.
func (c *Client) call(ctx context.Context, path string, req *SolveRequest, out any) (CallStats, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return CallStats{}, fmt.Errorf("serve: marshal request: %w", err)
	}
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 4
	}
	var st CallStats
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			cClientRetries.Inc()
		}
		st.Attempts++
		status, retryAfter, err := c.post(ctx, path, body, out)
		switch {
		case err == nil && status == http.StatusOK:
			return st, nil
		case ctx.Err() != nil:
			return st, ctx.Err()
		case err != nil:
			lastErr = err // transport error: retryable
		case status == http.StatusTooManyRequests:
			st.Rejected++
			cClientRejected.Inc()
			lastErr = retryAfter.err
		case status == http.StatusServiceUnavailable:
			lastErr = retryAfter.err
		default:
			// 400/405/422/500/...: retrying cannot help.
			return st, retryAfter.err
		}
		if try == attempts-1 {
			break
		}
		if err := c.sleep(ctx, try, retryAfter.wait); err != nil {
			return st, err
		}
	}
	return st, fmt.Errorf("serve: %d attempts exhausted: %w", st.Attempts, lastErr)
}

// serverHint carries a terminal error plus the server's suggested wait.
type serverHint struct {
	wait time.Duration
	err  error
}

// post is one HTTP exchange. A non-2xx status returns (status, hint,
// nil); hint.err is the *StatusError and hint.wait the server's
// Retry-After (body millisecond field preferred, header seconds
// fallback). Transport failures return a non-nil error.
func (c *Client) post(ctx context.Context, path string, body []byte, out any) (int, serverHint, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return 0, serverHint{}, fmt.Errorf("serve: build request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	hresp, err := hc.Do(hreq)
	if err != nil {
		return 0, serverHint{}, err
	}
	defer func() {
		io.Copy(io.Discard, hresp.Body) //nolint:errcheck // drain for keep-alive reuse
		hresp.Body.Close()
	}()
	if hresp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(hresp.Body).Decode(out); err != nil {
			return 0, serverHint{}, fmt.Errorf("serve: decode response: %w", err)
		}
		return http.StatusOK, serverHint{}, nil
	}
	var eresp ErrorResponse
	json.NewDecoder(hresp.Body).Decode(&eresp) //nolint:errcheck // body may be empty or non-JSON
	hint := serverHint{err: &StatusError{Status: hresp.StatusCode, Msg: eresp.Error}}
	if eresp.RetryAfterMS > 0 {
		hint.wait = time.Duration(eresp.RetryAfterMS) * time.Millisecond
	} else if secs, err := strconv.Atoi(hresp.Header.Get("Retry-After")); err == nil && secs > 0 {
		hint.wait = time.Duration(secs) * time.Second
	}
	return hresp.StatusCode, hint, nil
}

// sleep blocks for the retry wait: the server's suggestion when it gave
// one, else exponential backoff (BaseBackoff << try, capped) — either
// way jittered ±50% so synchronized clients do not re-stampede, and cut
// short by ctx.
func (c *Client) sleep(ctx context.Context, try int, suggested time.Duration) error {
	base := c.BaseBackoff
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	maxWait := c.MaxBackoff
	if maxWait <= 0 {
		maxWait = 2 * time.Second
	}
	wait := base << uint(try)
	if suggested > wait {
		wait = suggested
	}
	if wait > maxWait {
		wait = maxWait
	}
	c.mu.Lock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(1)) // literal-built client: fixed jitter seed
	}
	jitter := 0.5 + c.rng.Float64()
	c.mu.Unlock()
	wait = time.Duration(float64(wait) * jitter)
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
