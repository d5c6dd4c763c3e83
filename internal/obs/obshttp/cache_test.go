package obshttp

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"slices"
	"testing"

	"joinpebble/internal/core"
	"joinpebble/internal/graph"
	"joinpebble/internal/schemecache"
)

func scrapeCache(t *testing.T, c *schemecache.Cache) cacheReport {
	t.Helper()
	rec := httptest.NewRecorder()
	CacheHandlerFor(c).ServeHTTP(rec, httptest.NewRequest("GET", CachePath, nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var rep cacheReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("decode: %v (body: %s)", err, rec.Body.String())
	}
	return rep
}

func TestCacheHandlerNoCache(t *testing.T) {
	rep := scrapeCache(t, nil)
	if rep.Installed || rep.Stats != nil {
		t.Errorf("nil cache reported as installed: %+v", rep)
	}
}

// TestCacheHandlerReportsStats: the stats are the cache's occupancy
// alone; its outcomes are counted once, by the engine counters.
func TestCacheHandlerReportsStats(t *testing.T) {
	c := schemecache.New(1<<20, 0)
	var fp graph.Fingerprint
	if _, stored := c.Insert(fp, schemecache.Entry{Scheme: core.Scheme{{A: 0, B: 1}}, N: 2, M: 1, Cost: 2, Solver: "exact"}); !stored {
		t.Fatal("Insert did not store the entry")
	}
	if _, err := c.Get(fp); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if _, err := c.Get(graph.Fingerprint{Hi: 1}); !errors.Is(err, schemecache.ErrMiss) {
		t.Fatalf("Get of an absent fingerprint = %v, want ErrMiss", err)
	}

	rep := scrapeCache(t, c)
	if !rep.Installed || rep.Stats == nil {
		t.Fatalf("cache not reported: %+v", rep)
	}
	if rep.Stats.Entries != 1 || rep.Stats.Bytes <= 0 {
		t.Errorf("stats = %+v, want 1 entry of some bytes", rep.Stats)
	}
	if rep.Stats.Capacity != 1<<20 || rep.Stats.Shards <= 0 {
		t.Errorf("shape = %+v, want capacity 1MiB and shards > 0", rep.Stats)
	}
	rec := httptest.NewRecorder()
	CacheHandlerFor(c).ServeHTTP(rec, httptest.NewRequest("GET", CachePath, nil))
	var raw struct {
		Stats map[string]json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw.Stats {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"bytes", "capacity", "entries", "shards"}; !slices.Equal(keys, want) {
		t.Errorf("stats keys %v, want the occupancy keys %v", keys, want)
	}
	// The engine cache-rung counters ride along (possibly zero in this
	// process); the map itself must be present.
	if rep.Counters == nil {
		t.Error("counters map absent")
	}
}
