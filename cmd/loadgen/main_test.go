package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// debugVars serves body as the /debug/vars payload.
func debugVars(t *testing.T, body string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body)) //nolint:errcheck // test fixture
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestServerMetricsScrapesDebugVars: the report's metrics come from the
// server's joinpebble var, not from the loadgen process.
func TestServerMetricsScrapesDebugVars(t *testing.T) {
	srv := debugVars(t, `{"cmdline":["pebbled"],"joinpebble":{"counters":{"serve/solve/requests":4242}}}`)
	snap, err := serverMetrics(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["serve/solve/requests"]; got != 4242 {
		t.Fatalf("scraped serve/solve/requests = %d, want the sentinel 4242", got)
	}
}

// TestServerMetricsMissingVar: a server without the joinpebble var fails
// the scrape rather than yielding an empty snapshot.
func TestServerMetricsMissingVar(t *testing.T) {
	srv := debugVars(t, `{"cmdline":["other"],"memstats":{}}`)
	_, err := serverMetrics(context.Background(), srv.URL)
	if err == nil || !strings.Contains(err.Error(), "no joinpebble registry") {
		t.Fatalf("scrape without the joinpebble var: err = %v, want a missing-registry error", err)
	}
}
