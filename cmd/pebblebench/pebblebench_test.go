package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"joinpebble/internal/obs"
	"joinpebble/internal/schemecache"
	"joinpebble/internal/serve"
	"joinpebble/internal/testutil/leakcheck"
)

func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}

func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		a := newStream(w, 1, saltClosed).take(50)
		if b := newStream(w, 1, saltClosed).take(50); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 drew two different streams", w.name)
		}
		if b := newStream(w, 2, saltClosed).take(50); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 drew the same stream", w.name)
		}
		if b := newStream(w, 1, saltOpen).take(50); reflect.DeepEqual(a, b) {
			t.Errorf("%s: the open phase repeats the closed phase's stream", w.name)
		}
		for _, r := range a {
			if r.Left < w.minSize || r.Left > w.maxSize || r.Right < w.minSize || r.Right > w.maxSize {
				t.Fatalf("%s: sizes %d/%d outside [%d, %d]", w.name, r.Left, r.Right, w.minSize, w.maxSize)
			}
		}
		if w.distinct == 0 {
			// Every seed's block holds the same shapes, in another order.
			type shape struct {
				family      string
				left, right int
			}
			shapes := func(seed int64) map[shape]int {
				m := map[shape]int{}
				for _, r := range newStream(w, seed, saltClosed).take(blockSize) {
					m[shape{r.Family, r.Left, r.Right}]++
				}
				return m
			}
			if a, b := shapes(1), shapes(2); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: seeds 1 and 2 drew blocks of different shapes", w.name)
			}
		}
	}
	if n, rate := openSlice(workloadByName("universal-cold"), 3*time.Second); n != 2*blockSize || math.Abs(rate-2*blockSize/3.0) > 1e-9 {
		t.Errorf("open slice of 3s at 32/s: %d arrivals at %g/s, want two blocks", n, rate)
	}
	if n := wholeBlocks(250); n != 4*blockSize {
		t.Errorf("a closed slice of 250 requests sends %d, want four blocks", n)
	}
	sched := func(seed int64, n int) []time.Duration { return schedule(subRand(seed, saltArrivals), 10, n) }
	if a, b := sched(1, 100), sched(1, 100); !reflect.DeepEqual(a, b) {
		t.Error("seed 1 drew two different arrival schedules")
	}
	if a, b := sched(1, 100), sched(2, 100); reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 drew the same arrival schedule")
	}
	if due := sched(1, 1000); due[999] < 95*time.Second || due[999] > 105*time.Second {
		t.Errorf("1000 arrivals at 10/s end at %v, want about 100s", due[999])
	}
}

func TestRepeatedInstances(t *testing.T) {
	w := workloadByName("repeat-hot")
	pool := instances(w, 1)
	seeds := map[int64]bool{}
	for _, r := range pool {
		seeds[r.Seed] = true
	}
	if len(pool) != 32 || len(seeds) != 32 {
		t.Fatalf("got %d instances with %d distinct seeds, want 32", len(pool), len(seeds))
	}
	for _, r := range newStream(w, 1, saltOpen).take(200) {
		if !seeds[r.Seed] {
			t.Fatalf("request %+v is not one of the filled instances", r)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: quantile must sort
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{10, 0.5, 5}, {10, 0.9, 9}, {10, 1, 10}, {11, 0.5, 6}, {200, 0.95, 190}, {1, 0.5, 1},
	} {
		if got := quantile(xs(tc.n), tc.q); got != tc.want {
			t.Errorf("quantile(1..%d, %g) = %g, want %g", tc.n, tc.q, got, tc.want)
		}
	}
	if got := quantile([]float64{1, math.Inf(1), 2}, 0.9); !math.IsInf(got, 1) {
		t.Errorf("a failed request must reach the tail, got %g", got)
	}
	if _, err := tailQuantile(xs(199), 0.95); err == nil {
		t.Error("p95 of 199 samples was reported")
	}
	if v, err := tailQuantile(xs(200), 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 200 samples = %g, %v; want 190", v, err)
	}
	if _, err := tailQuantile(xs(99), 0.9); err == nil {
		t.Error("p90 of 99 samples was reported")
	}
	if got := median(xs(4)); got != 2.5 {
		t.Errorf("median(1..4) = %g, want 2.5", got)
	}
}

func TestHostProbe(t *testing.T) {
	if got := hostScale([]time.Duration{refProbe, 2 * refProbe, 2 * refProbe}); got != 0.5 {
		t.Errorf("hostScale on a host twice as slow = %g, want 0.5", got)
	}
	if d := probe(2); d <= 0 {
		t.Fatalf("probe took %v", d)
	}
	// A slice measured at half the reference speed: 4 answers of 10 ms
	// in 2 s read as 4 per second and 5 ms.
	slice := phase{wall: 2 * time.Second, scale: 0.5}
	for i := 0; i < 4; i++ {
		slice.samples = append(slice.samples, sample{resp: &serve.SolveResponse{EffectiveCost: 1, Edges: 1}, lat: 10 * time.Millisecond})
	}
	m, err := endToEnd(config{quick: true}, 1, window{closed: []phase{slice}}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["throughput_rps"].Value; got != 4 {
		t.Errorf("scaled throughput = %g, want 4", got)
	}
	if got := m["latency_p50_ms"].Value; got != 5 {
		t.Errorf("scaled p50 = %g, want 5", got)
	}
	// The probe stops the server's process; it must always continue it.
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary to stand in for pebbled")
	}
	srv := &server{cmd: exec.Command(sleep, "30")}
	if err := srv.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.kill()
	if _, err := srv.probe(2); err != nil {
		t.Fatal(err)
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", srv.cmd.Process.Pid))
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	// The state is the field after the parenthesised command name.
	if _, rest, _ := strings.Cut(string(stat), ") "); strings.HasPrefix(rest, "T") {
		t.Errorf("the server is still stopped after the probe: %s", stat)
	}
}

func TestCheckerRejectsDoctoredAnswers(t *testing.T) {
	req := serve.SolveRequest{Family: "containment", Seed: 7, Left: 64, Right: 64}
	valid := func() *serve.SolveResponse {
		return &serve.SolveResponse{
			Family: "containment", Solver: "approx-1.25", Cost: 110, EffectiveCost: 109,
			LowerBound: 101, UpperBound: 200, Edges: 100, Vertices: 128,
			Attempts: []serve.AttemptJSON{{Solver: "approx-1.25"}},
		}
	}
	if err := newChecker(workloadByName("universal-cold")).check(&req, valid()); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	for name, doctor := range map[string]func(*serve.SolveResponse){
		"cost above Lemma 2.1": func(r *serve.SolveResponse) { r.Cost = 201 },
		"cost below Lemma 2.1": func(r *serve.SolveResponse) { r.Cost = 100 },
		"approx past Thm 3.1":  func(r *serve.SolveResponse) { r.EffectiveCost = 125 },
		"equijoin not perfect": func(r *serve.SolveResponse) { r.Solver = "equijoin" },
		"other family":         func(r *serve.SolveResponse) { r.Family = "spatial" },
		"degraded, one attempt": func(r *serve.SolveResponse) {
			r.Degraded = true
		},
		"degraded, wrong last attempt": func(r *serve.SolveResponse) {
			r.Degraded = true
			r.Attempts = []serve.AttemptJSON{{Solver: "exact", Err: "deadline"}, {Solver: "naive"}}
		},
	} {
		resp := valid()
		doctor(resp)
		if err := newChecker(workloadByName("universal-cold")).check(&req, resp); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// At the Thm 3.1 limit m + ⌊(m−1)/4⌋ = 124 the answer stands.
	resp := valid()
	resp.EffectiveCost, resp.Cost = 124, 125
	if err := newChecker(workloadByName("universal-cold")).check(&req, resp); err != nil {
		t.Errorf("answer at the Thm 3.1 limit rejected: %v", err)
	}

	chk := newChecker(workloadByName("repeat-hot"))
	if err := chk.check(&req, valid()); err != nil {
		t.Fatal(err)
	}
	resp = valid()
	resp.Cost = 111
	if err := chk.check(&req, resp); err == nil {
		t.Error("a repeated instance changed cost and was accepted")
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "mixed-fresh", "--seed", "3", "--seconds", "10", "--trace", "1"})
	if err != nil || cfg.w.name != "mixed-fresh" || cfg.seed != 3 || cfg.seconds != 10 || !cfg.trace {
		t.Fatalf("parseFlags = %+v, %v", cfg, err)
	}
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "mixed-fresh", "-trace", "2"},
		{"-workload", "mixed-fresh", "extra"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads in step with the
// table here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) == 0 {
		t.Error("BENCHMARK.json names no end-to-end metric")
	}
}

// startServer runs pebbled's service in process with a cold cache of
// pebbled's default size.
func startServer(t *testing.T) *serve.Server {
	t.Helper()
	srv, err := serve.Start(serve.Config{Addr: "127.0.0.1:0", Cache: schemecache.New(cacheBytes, 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	})
	return srv
}

// TestQuickRun drives every workload end to end, about 50 requests
// each, against a fresh in-process server.
func TestQuickRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			srv := startServer(t)
			cfg := config{w: w, seed: 1, seconds: 1, base: srv.URL(), quick: true, conns: 2}
			res, err := run(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 2*quickRequests {
				t.Fatalf("result %+v", res)
			}
			for _, name := range []string{"setup_s", "throughput_rps", "latency_p50_ms", "pi_over_m"} {
				if v, ok := res.Metrics[name]; !ok || v.Value <= 0 {
					t.Errorf("metric %s = %+v", name, v)
				}
			}
		})
	}
}

// TestReplayCrossCheck replays each workload's leading requests and
// requires the in-process decomposition to agree with the server.
func TestReplayCrossCheck(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			srv := startServer(t)
			cfg := config{w: w, seed: 1, base: srv.URL(), conns: 2}
			if err := ready(context.Background(), &server{base: srv.URL()}, cfg, newChecker(w), 0); err != nil {
				t.Fatal(err)
			}
			m, tr, n, err := replay(context.Background(), srv.URL(), w, 1, 12, obs.Now().Add(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			if n != 12 || tr.Len() == 0 {
				t.Fatalf("replayed %d requests into %d spans", n, tr.Len())
			}
			if c := m["trace.coverage"].Value; c <= 0 || c > 2 {
				t.Errorf("trace.coverage = %g", c)
			}
		})
	}
}
