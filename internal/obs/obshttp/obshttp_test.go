package obshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"joinpebble/internal/obs"
)

// TestServeExposesRegistry spins up the debug server on an ephemeral
// port and checks /debug/vars carries a live snapshot of obs.Default and
// /debug/pprof/ answers.
func TestServeExposesRegistry(t *testing.T) {
	obs.Default.Counter("obshttp_test/hits").Add(3)
	srv, err := Start("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind a local listener: %v", err)
	}
	defer srv.Shutdown(context.Background())
	addr := srv.Addr()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Joinpebble obs.Snapshot `json:"joinpebble"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars does not parse: %v\n%s", err, body)
	}
	if vars.Joinpebble.Counters["obshttp_test/hits"] < 3 {
		t.Fatalf("snapshot missing counter: %+v", vars.Joinpebble.Counters)
	}

	pp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ returned %d", pp.StatusCode)
	}

	// Publish with the same name again must not panic (expvar would).
	Publish("joinpebble", obs.Default)
}

// TestGracefulShutdown: a started server answers, Shutdown drains it
// under the caller's context, and the port stops accepting afterwards.
func TestGracefulShutdown(t *testing.T) {
	srv, err := Start("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind a local listener: %v", err)
	}
	url := fmt.Sprintf("http://%s/debug/vars", srv.Addr())
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
	// Shutdown on a nil server (pprof flag unset) must be a no-op.
	var none *Server
	if err := none.Shutdown(ctx); err != nil {
		t.Fatalf("nil Shutdown: %v", err)
	}
}

// TestTimeoutsConfigured pins the hardening policy: header/read/idle
// timeouts set, write timeout deliberately absent (pprof profile
// streams for its full ?seconds window).
func TestTimeoutsConfigured(t *testing.T) {
	srv, err := Start("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind a local listener: %v", err)
	}
	defer srv.Shutdown(context.Background())
	if srv.srv.ReadHeaderTimeout <= 0 || srv.srv.ReadTimeout <= 0 || srv.srv.IdleTimeout <= 0 {
		t.Fatalf("timeouts unset: header=%v read=%v idle=%v",
			srv.srv.ReadHeaderTimeout, srv.srv.ReadTimeout, srv.srv.IdleTimeout)
	}
	if srv.srv.WriteTimeout != 0 {
		t.Fatalf("write timeout %v would truncate pprof profile streams", srv.srv.WriteTimeout)
	}
	if srv.srv.Handler == http.DefaultServeMux || srv.srv.Handler == nil {
		t.Fatal("debug server must run on its own mux")
	}
}
