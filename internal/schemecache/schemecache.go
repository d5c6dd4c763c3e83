// Package schemecache is a sharded, bounded, concurrency-safe cache of
// verified pebbling schemes keyed by canonical graph fingerprint.
//
// Schemes are structural: they depend only on the join graph's
// isomorphism class and the predicate family, never on relation
// contents, so a scheme solved for one request can be replayed for any
// later request with the same shape. The cache stores schemes in
// *canonical* vertex labels — the labeling graph.Canonicalize computes —
// and the ToCanonical/FromCanonical helpers translate between a
// request's labeling and the cached form using the request's own
// canonical mapping. A cached scheme is therefore meaningful for every
// instance that fingerprints to the same key, not just the one that
// inserted it.
//
// Sharding and eviction. Entries are spread over a power-of-two number
// of shards selected by the fingerprint's high bits, each guarded by
// its own mutex, so concurrent planners contend only when they hash to
// the same shard. Capacity is accounted in bytes (configurations plus
// per-entry overhead) and split evenly across shards; each shard evicts
// with the CLOCK second-chance policy — a hit sets the entry's
// reference bit, the sweeping hand clears it once before reclaiming, so
// one sweep's worth of recency survives without per-access list
// surgery.
//
// Trust model. The cache is an optimization, never an authority: the
// engine re-verifies every translated scheme against the simulator
// before using it, so a corrupt or stale entry costs a re-solve, not a
// wrong answer. Stored entries are shared and read-only: Insert takes
// ownership of the caller's scheme and Get lends the stored one, so the
// translation back to a request's labeling is a hit's only copy. The
// cache counts no outcomes; its caller keeps that ledger, and Stats
// reports occupancy. The faultinject sites let tests drive the
// rejection paths: "schemecache/lookup" forces misses,
// "schemecache/corrupt" hands back a deliberately invalid private copy
// that verification must catch.
package schemecache

import (
	"errors"
	"sync"

	"joinpebble/internal/core"
	"joinpebble/internal/faultinject"
	"joinpebble/internal/graph"
)

// Fault-injection sites (registered in DESIGN.md's site table).
const (
	// SiteLookup fires on every Get; an armed error forces a miss even
	// when the entry is present, driving the cold path under traffic.
	SiteLookup = "schemecache/lookup"
	// SiteCorrupt fires on every hit; an armed error returns a corrupted
	// copy of the entry (the stored one stays clean), driving the
	// engine's verify-on-hit rejection path.
	SiteCorrupt = "schemecache/corrupt"
)

// ErrMiss is returned by Get when no entry is cached under the
// fingerprint (or a lookup fault forced the miss path).
var ErrMiss = errors.New("schemecache: miss")

// Entry is one cached scheme. Scheme is in canonical vertex labels; N
// and M pin the shape so a fingerprint collision across different sizes
// (or a stale entry) is rejected before translation. Once inserted, the
// cache owns Scheme and every Get shares it: nobody may write to it.
type Entry struct {
	Scheme core.Scheme // configurations in canonical labels
	N, M   int         // vertex and edge counts of the canonical graph
	Cost   int         // verified π̂ of the scheme
	Solver string      // name of the solver that produced it
}

// Stats is a point-in-time occupancy aggregate across all shards.
type Stats struct {
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	Capacity int64 `json:"capacity"`
	Shards   int   `json:"shards"`
}

// entryOverhead approximates the per-entry bookkeeping cost (slot,
// index map cell, Entry header) charged against capacity on top of the
// configuration payload.
const entryOverhead = 96

// bytesFor is the capacity charge for an entry: 16 bytes per
// configuration (two ints) plus the solver-name string and overhead.
func bytesFor(ent Entry) int64 {
	return int64(len(ent.Scheme))*16 + int64(len(ent.Solver)) + entryOverhead
}

// slot is one CLOCK ring position.
type slot struct {
	fp   graph.Fingerprint
	ent  Entry
	cost int64 // byte charge, fixed at insert
	ref  bool  // second-chance bit, set on hit
	live bool
}

type shard struct {
	//joinlint:lockrank schemecache-shard 50
	mu       sync.Mutex
	idx      map[graph.Fingerprint]int
	slots    []slot
	free     []int
	hand     int
	bytes    int64
	capacity int64
}

// Cache is the sharded scheme cache. The zero value is not usable; use
// New. All methods are safe for concurrent use.
type Cache struct {
	shards []shard
	shift  uint // fp.Hi >> shift selects the shard
}

// DefaultShards is the shard count New uses when given zero.
const DefaultShards = 8

// New returns a cache bounded at capacityBytes, split over the given
// number of shards (rounded up to a power of two; DefaultShards when
// zero or negative). A capacityBytes too small for a single entry
// degenerates to a cache that stores nothing, which is safe.
func New(capacityBytes int64, shards int) *Cache {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{shards: make([]shard, n)}
	c.shift = 64
	for n > 1 {
		c.shift--
		n >>= 1
	}
	per := capacityBytes / int64(len(c.shards))
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].idx = make(map[graph.Fingerprint]int)
	}
	return c
}

func (c *Cache) shardFor(fp graph.Fingerprint) *shard {
	if c.shift >= 64 {
		return &c.shards[0]
	}
	return &c.shards[fp.Hi>>c.shift]
}

// Get returns the entry cached under fp, or ErrMiss. The entry's
// scheme is the stored one, shared with every other reader: callers
// translate it (FromCanonical copies) and never write to it.
func (c *Cache) Get(fp graph.Fingerprint) (Entry, error) {
	s := c.shardFor(fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := faultinject.Fire(SiteLookup); err != nil {
		return Entry{}, ErrMiss
	}
	i, ok := s.idx[fp]
	if !ok {
		return Entry{}, ErrMiss
	}
	s.slots[i].ref = true
	ent := s.slots[i].ent
	if err := faultinject.Fire(SiteCorrupt); err != nil && len(ent.Scheme) > 0 {
		// Deterministic corruption of a private copy: an always
		// out-of-range pebble, so the engine's verify-on-hit must reject
		// the entry while the stored one stays clean.
		ent.Scheme = append(core.Scheme(nil), ent.Scheme...)
		ent.Scheme[0].A = -1 - ent.Scheme[0].A
	}
	return ent, nil
}

// Insert stores ent under fp, evicting second-chance victims as needed,
// and returns how many entries were evicted and whether ent was stored.
// An entry larger than the shard capacity is rejected (stores nothing,
// evicts nothing); re-inserting an existing fingerprint replaces the
// entry in place. The cache takes ownership of ent.Scheme: the caller
// must not write to it afterwards.
func (c *Cache) Insert(fp graph.Fingerprint, ent Entry) (evicted int, stored bool) {
	need := bytesFor(ent)
	s := c.shardFor(fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.idx[fp]; ok {
		// Replacement is remove-then-insert (the removal is not an
		// eviction), so the size check and sweep below apply uniformly.
		s.bytes -= s.slots[i].cost
		delete(s.idx, fp)
		s.slots[i] = slot{}
		s.free = append(s.free, i)
	}
	if need > s.capacity {
		return 0, false
	}
	evicted = s.evictUntil(s.capacity - need)
	var i int
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = len(s.slots)
		s.slots = append(s.slots, slot{})
	}
	s.slots[i] = slot{fp: fp, ent: ent, cost: need, ref: true, live: true}
	s.idx[fp] = i
	s.bytes += need
	return evicted, true
}

// evictUntil runs the CLOCK hand until the shard's bytes fit within
// limit. Caller holds s.mu.
func (s *shard) evictUntil(limit int64) int {
	evicted := 0
	// Each live entry's reference bit grants one full-circle reprieve,
	// so the hand terminates within two sweeps of the ring.
	for s.bytes > limit && len(s.idx) > 0 {
		i := s.hand
		s.hand = (s.hand + 1) % len(s.slots)
		if !s.slots[i].live {
			continue
		}
		if s.slots[i].ref {
			s.slots[i].ref = false
			continue
		}
		s.bytes -= s.slots[i].cost
		delete(s.idx, s.slots[i].fp)
		s.slots[i] = slot{}
		s.free = append(s.free, i)
		evicted++
	}
	return evicted
}

// Stats aggregates occupancy across all shards.
func (c *Cache) Stats() Stats {
	var st Stats
	st.Shards = len(c.shards)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.idx)
		st.Bytes += s.bytes
		st.Capacity += s.capacity
		s.mu.Unlock()
	}
	return st
}

// ToCanonical returns a copy of s with every pebble position mapped
// through perm (instance label → canonical label), the form entries are
// stored in.
func ToCanonical(s core.Scheme, perm []int32) core.Scheme {
	out := make(core.Scheme, len(s))
	for i, cfg := range s {
		out[i] = core.Config{A: int(perm[cfg.A]), B: int(perm[cfg.B])}
	}
	return out
}

// FromCanonical maps a canonical-labeled scheme back onto the request's
// labeling: perm is the request's instance→canonical mapping from
// graph.Canonicalize, and the translation applies its inverse. A pebble
// position outside the canonical label range — a corrupt entry — passes
// through untranslated, so the caller's verification rejects it instead
// of the translation panicking.
func FromCanonical(s core.Scheme, perm []int32) core.Scheme {
	inv := make([]int32, len(perm))
	for v, id := range perm {
		inv[id] = int32(v)
	}
	out := make(core.Scheme, len(s))
	for i, cfg := range s {
		out[i] = core.Config{A: throughInv(inv, cfg.A), B: throughInv(inv, cfg.B)}
	}
	return out
}

func throughInv(inv []int32, v int) int {
	if v < 0 || v >= len(inv) {
		return v
	}
	return int(inv[v])
}
