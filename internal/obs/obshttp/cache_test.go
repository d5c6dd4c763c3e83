package obshttp

import (
	"encoding/json"
	"net/http/httptest"
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

func TestCacheHandlerReportsStats(t *testing.T) {
	c := schemecache.New(1<<20, 0)
	var fp graph.Fingerprint
	c.Insert(fp, schemecache.Entry{Scheme: core.Scheme{{A: 0, B: 1}}, N: 2, M: 1, Cost: 2, Solver: "exact"})
	if _, err := c.Get(fp); err != nil {
		t.Fatalf("Get: %v", err)
	}
	c.Get(graph.Fingerprint{Hi: 1}) //nolint:errcheck // a deliberate miss

	rep := scrapeCache(t, c)
	if !rep.Installed || rep.Stats == nil {
		t.Fatalf("cache not reported: %+v", rep)
	}
	if rep.Stats.Inserts != 1 || rep.Stats.Hits != 1 || rep.Stats.Misses != 1 || rep.Stats.Entries != 1 {
		t.Errorf("stats = %+v, want 1 insert / 1 hit / 1 miss / 1 entry", rep.Stats)
	}
	if rep.Stats.Capacity != 1<<20 || rep.Stats.Shards <= 0 {
		t.Errorf("shape = %+v, want capacity 1MiB and shards > 0", rep.Stats)
	}
	// The engine cache-rung counters ride along (possibly zero in this
	// process); the map itself must be present.
	if rep.Counters == nil {
		t.Error("counters map absent")
	}
}
