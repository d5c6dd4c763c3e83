package obshttp

import (
	"encoding/json"
	"net/http"
	"strings"

	"joinpebble/internal/obs"
	"joinpebble/internal/schemecache"
)

// CachePath is the debug endpoint reporting pebbled's scheme cache:
// its occupancy (schemecache.Stats: entries, bytes, capacity, shards)
// plus the engine's cache-rung counters (hit/miss/insert/evict/translate
// and the fingerprint timer), the one ledger of cache outcomes, so one
// scrape answers both "how full is the cache" and "is the rung earning
// its keep".
const CachePath = "/debug/joinpebble/cache"

// cacheReport is the CachePath JSON payload.
type cacheReport struct {
	// Installed is false when the server runs without a cache
	// (pebbled -cache-size 0); Stats is then absent.
	Installed bool                  `json:"installed"`
	Stats     *schemecache.Stats    `json:"stats,omitempty"`
	Counters  map[string]int64      `json:"counters"`
	Timers    map[string]timerBrief `json:"timers,omitempty"`
}

// timerBrief is the compact timer view the report uses (full
// distributions stay on /debug/vars).
type timerBrief struct {
	Count   int64   `json:"count"`
	TotalNs int64   `json:"total_ns"`
	AvgNs   float64 `json:"avg_ns"`
}

// cacheMetricPrefix selects the engine cache-rung metrics out of the
// default registry snapshot (reading the snapshot, rather than binding
// the counters here, keeps each metric name declared in exactly one
// package).
const cacheMetricPrefix = "engine/cache/"

// CacheHandlerFor serves the CachePath report: the stats of c (nil
// when the server runs without a cache) and the default registry's
// cache-rung metrics.
func CacheHandlerFor(c *schemecache.Cache) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := cacheReport{Counters: map[string]int64{}, Timers: map[string]timerBrief{}}
		if c != nil {
			st := c.Stats()
			rep.Installed = true
			rep.Stats = &st
		}
		snap := obs.Default.Snapshot()
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, cacheMetricPrefix) {
				rep.Counters[name] = v
			}
		}
		for name, ts := range snap.Timers {
			if strings.HasPrefix(name, cacheMetricPrefix) {
				rep.Timers[name] = timerBrief{Count: ts.Count, TotalNs: ts.TotalNs, AvgNs: ts.AvgNs}
			}
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(data, '\n')) //nolint:errcheck // best-effort response body
	})
}
