package schemecache

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"joinpebble/internal/core"
	"joinpebble/internal/faultinject"
	"joinpebble/internal/graph"
)

func fpOf(hi, lo uint64) graph.Fingerprint { return graph.Fingerprint{Hi: hi, Lo: lo} }

func entryOf(k int) Entry {
	s := make(core.Scheme, k)
	for i := range s {
		s[i] = core.Config{A: i, B: i + 1}
	}
	return Entry{Scheme: s, N: k + 1, M: k, Cost: s.Cost(), Solver: "exact"}
}

func TestGetMissThenHit(t *testing.T) {
	c := New(1<<20, 4)
	fp := fpOf(1, 2)
	if _, err := c.Get(fp); !errors.Is(err, ErrMiss) {
		t.Fatalf("empty cache Get = %v, want ErrMiss", err)
	}
	want := entryOf(5)
	if ev, stored := c.Insert(fp, want); ev != 0 || !stored {
		t.Fatalf("Insert into an empty cache = (%d evicted, stored %v), want (0, true)", ev, stored)
	}
	got, err := c.Get(fp)
	if err != nil {
		t.Fatalf("Get after Insert: %v", err)
	}
	if got.N != want.N || got.M != want.M || got.Cost != want.Cost || got.Solver != want.Solver {
		t.Fatalf("entry metadata mismatch: got %+v want %+v", got, want)
	}
	if len(got.Scheme) != len(want.Scheme) {
		t.Fatalf("scheme length %d, want %d", len(got.Scheme), len(want.Scheme))
	}
	for i := range got.Scheme {
		if got.Scheme[i] != want.Scheme[i] {
			t.Fatalf("config %d: %v != %v", i, got.Scheme[i], want.Scheme[i])
		}
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != bytesFor(want) {
		t.Fatalf("stats %+v, want 1 entry of %d bytes", st, bytesFor(want))
	}
}

// TestGetLendsStoredEntry: a hit hands back the stored scheme itself,
// with no allocation; the translation is the caller's only copy.
func TestGetLendsStoredEntry(t *testing.T) {
	c := New(1<<20, 1)
	fp := fpOf(3, 4)
	c.Insert(fp, entryOf(4))
	a, _ := c.Get(fp)
	b, _ := c.Get(fp)
	if &a.Scheme[0] != &b.Scheme[0] {
		t.Fatal("two hits on one entry returned different schemes, want the stored one")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Get(fp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Get of a present entry allocates %.1f times, want 0", allocs)
	}
}

// TestInsertKeepsCallerScheme: Insert takes ownership of the caller's
// slice instead of copying it.
func TestInsertKeepsCallerScheme(t *testing.T) {
	c := New(1<<20, 1)
	fp := fpOf(5, 6)
	ent := entryOf(4)
	c.Insert(fp, ent)
	got, _ := c.Get(fp)
	if &got.Scheme[0] != &ent.Scheme[0] {
		t.Fatal("Insert stored a copy of the caller's scheme, want the caller's slice")
	}
}

func TestReplaceInPlace(t *testing.T) {
	c := New(1<<20, 1)
	fp := fpOf(7, 8)
	c.Insert(fp, entryOf(3))
	repl := entryOf(9)
	repl.Solver = "approx-1.25"
	ev, stored := c.Insert(fp, repl)
	got, err := c.Get(fp)
	if err != nil {
		t.Fatalf("Get after replace: %v", err)
	}
	if got.Solver != "approx-1.25" || len(got.Scheme) != 9 {
		t.Fatalf("replacement not visible: %+v", got)
	}
	if st := c.Stats(); st.Entries != 1 || ev != 0 || !stored {
		t.Fatalf("replace must store without evicting or changing the entry count: %d evicted, stored %v, %+v", ev, stored, st)
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	// Capacity of one shard is total/shards; a scheme bigger than that
	// must be rejected without disturbing existing entries.
	c := New(512, 1)
	fp := fpOf(9, 10)
	c.Insert(fp, entryOf(2))
	big := entryOf(1000)
	if ev, stored := c.Insert(fpOf(11, 12), big); ev != 0 || stored {
		t.Fatalf("oversized insert = (%d evicted, stored %v), want (0, false)", ev, stored)
	}
	if _, err := c.Get(fpOf(11, 12)); !errors.Is(err, ErrMiss) {
		t.Fatal("oversized entry was stored")
	}
	if _, err := c.Get(fp); err != nil {
		t.Fatalf("small entry lost after oversized insert: %v", err)
	}
}

func TestClockEviction(t *testing.T) {
	// One shard sized for roughly four small entries. Insert four, keep
	// one hot via Get, then push new entries: the hot entry's reference
	// bit must save it from the first sweep while cold ones go.
	ent := entryOf(2)
	per := bytesFor(ent)
	c := New(per*4, 1)
	evicted := 0
	for i := 0; i < 4; i++ {
		ev, _ := c.Insert(fpOf(uint64(i), 0), ent)
		evicted += ev
	}
	if st := c.Stats(); st.Entries != 4 || evicted != 0 {
		t.Fatalf("warmup: %d entries, %d evicted, want 4 entries, 0 evicted", st.Entries, evicted)
	}
	hot := fpOf(2, 0)
	if _, err := c.Get(hot); err != nil {
		t.Fatalf("hot get: %v", err)
	}
	// Two new inserts force one eviction each; the hot entry survives.
	for _, fp := range []graph.Fingerprint{fpOf(10, 0), fpOf(11, 0)} {
		if ev, stored := c.Insert(fp, ent); ev != 1 || !stored {
			t.Fatalf("insert under pressure = (%d evicted, stored %v), want (1, true)", ev, stored)
		}
	}
	st := c.Stats()
	if st.Entries != 4 {
		t.Fatalf("stats after pressure %+v, want 4 entries", st)
	}
	if st.Bytes > st.Capacity {
		t.Fatalf("bytes %d exceed capacity %d", st.Bytes, st.Capacity)
	}
	if _, err := c.Get(hot); err != nil {
		t.Fatal("second-chance bit did not protect the recently used entry")
	}
}

func TestByteAccountingAcrossChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := New(8192, 2)
	for i := 0; i < 500; i++ {
		k := 1 + rng.Intn(30)
		c.Insert(fpOf(uint64(rng.Intn(40)), uint64(i)), entryOf(k))
		if rng.Intn(3) == 0 {
			c.Get(fpOf(uint64(rng.Intn(40)), uint64(rng.Intn(i+1))))
		}
		st := c.Stats()
		if st.Bytes > st.Capacity {
			t.Fatalf("iteration %d: bytes %d exceed capacity %d", i, st.Bytes, st.Capacity)
		}
	}
	// Recount from scratch: stats bytes must equal the sum of live
	// entries' charges.
	st := c.Stats()
	var sum int64
	for si := range c.shards {
		s := &c.shards[si]
		s.mu.Lock()
		for _, i := range s.idx {
			sum += s.slots[i].cost
		}
		s.mu.Unlock()
	}
	if sum != st.Bytes {
		t.Fatalf("byte accounting drifted: recount %d, stats %d", sum, st.Bytes)
	}
}

func TestShardSelectionSpreads(t *testing.T) {
	c := New(1<<20, 8)
	if len(c.shards) != 8 {
		t.Fatalf("shard count %d, want 8", len(c.shards))
	}
	// High bits select the shard: fingerprints differing only in low
	// bits land together, differing in high bits spread out.
	a := c.shardFor(fpOf(0, 1))
	b := c.shardFor(fpOf(0, 2))
	if a != b {
		t.Fatal("low-bit variation must not change the shard")
	}
	seen := map[*shard]bool{}
	for i := 0; i < 8; i++ {
		seen[c.shardFor(fpOf(uint64(i)<<61, 0))] = true
	}
	if len(seen) != 8 {
		t.Fatalf("high-bit variation hit %d shards, want 8", len(seen))
	}
}

// TestConcurrentMixedLoad: writers replace and evict a shared set of
// fingerprints while readers translate every hit with FromCanonical, so
// the race detector sees any write to an entry that Get lends out,
// including one evicted while a reader still holds it. Each 256-byte
// shard holds one or two entries of about four fingerprints that map
// to it, and a quarter of the inserts go to fresh fingerprints, so the
// CLOCK hand sweeps throughout.
func TestConcurrentMixedLoad(t *testing.T) {
	c := New(1<<11, 8)
	const maxK = 8
	fps := make([]graph.Fingerprint, 32)
	for i := range fps {
		fps[i] = fpOf(uint64(i)*0x9E3779B97F4A7C15, uint64(i))
	}
	identity := make([]int32, maxK+1)
	for v := range identity {
		identity[v] = int32(v)
	}
	var wg sync.WaitGroup
	var hits, evicted [8]int
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				if i%500 == 0 {
					c.Stats()
				}
				fp := fps[rng.Intn(len(fps))]
				if rng.Intn(2) == 0 {
					if rng.Intn(4) == 0 {
						fp = fpOf(rng.Uint64(), rng.Uint64())
					}
					ev, _ := c.Insert(fp, entryOf(1+rng.Intn(maxK)))
					evicted[w] += ev
					continue
				}
				ent, err := c.Get(fp)
				if err != nil {
					continue
				}
				hits[w]++
				for j, cfg := range FromCanonical(ent.Scheme, identity) {
					if cfg != (core.Config{A: j, B: j + 1}) {
						t.Errorf("translated config %d of a %d-config entry is %v", j, len(ent.Scheme), cfg)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	totalHits, totalEvicted := 0, 0
	for w := range hits {
		totalHits += hits[w]
		totalEvicted += evicted[w]
	}
	if totalHits == 0 {
		t.Fatal("no reader hit a shared fingerprint")
	}
	if totalEvicted == 0 {
		t.Fatal("no insert evicted; the load never swept the CLOCK hand")
	}
	st := c.Stats()
	if st.Bytes > st.Capacity {
		t.Fatalf("bytes %d exceed capacity %d after concurrent churn", st.Bytes, st.Capacity)
	}
}

func TestLookupFaultForcesMiss(t *testing.T) {
	defer faultinject.Reset()
	c := New(1<<20, 1)
	fp := fpOf(20, 0)
	c.Insert(fp, entryOf(3))
	faultinject.Arm(SiteLookup, faultinject.Fault{Err: errors.New("injected")})
	if _, err := c.Get(fp); !errors.Is(err, ErrMiss) {
		t.Fatalf("armed lookup fault: Get = %v, want ErrMiss", err)
	}
	faultinject.Reset()
	if _, err := c.Get(fp); err != nil {
		t.Fatalf("disarmed: Get = %v, want hit", err)
	}
}

func TestCorruptFaultInvalidatesScheme(t *testing.T) {
	defer faultinject.Reset()
	c := New(1<<20, 1)
	fp := fpOf(21, 0)
	c.Insert(fp, entryOf(3))
	faultinject.Arm(SiteCorrupt, faultinject.Fault{Err: errors.New("injected")})
	got, err := c.Get(fp)
	if err != nil {
		t.Fatalf("corrupt fault must still return a hit: %v", err)
	}
	if got.Scheme[0].A >= 0 {
		t.Fatalf("corrupt copy has in-range pebble %v; verification could accept it", got.Scheme[0])
	}
	// The stored entry is untouched.
	faultinject.Reset()
	clean, _ := c.Get(fp)
	if clean.Scheme[0].A < 0 {
		t.Fatal("corruption leaked into the stored entry")
	}
}

// TestTranslationRoundTrip: ToCanonical then FromCanonical under the
// same mapping is the identity, and a canonical-labeled scheme solved
// on one labeling verifies on a permuted labeling after translation.
func TestTranslationRoundTrip(t *testing.T) {
	g := graph.PathBipartite(6).Graph()
	perm, _ := graph.Canonicalize(g, nil)
	s := core.Scheme{{A: 0, B: 1}, {A: 2, B: 1}, {A: 2, B: 3}}
	round := FromCanonical(ToCanonical(s, perm), perm)
	for i := range s {
		if round[i] != s[i] {
			t.Fatalf("roundtrip config %d: %v != %v", i, round[i], s[i])
		}
	}
}

func TestStatsCapacityAndShards(t *testing.T) {
	c := New(1<<20, 5) // rounds up to 8
	st := c.Stats()
	if st.Shards != 8 {
		t.Fatalf("shards %d, want 8 (rounded up)", st.Shards)
	}
	if st.Capacity != (1<<20)/8*8 {
		t.Fatalf("capacity %d, want %d", st.Capacity, (1<<20)/8*8)
	}
}

func TestManyFingerprintsStress(t *testing.T) {
	ent := entryOf(2)
	c := New(bytesFor(ent)*64, 4)
	evicted := 0
	for i := 0; i < 1000; i++ {
		ev, _ := c.Insert(fpOf(uint64(i)*0x9E3779B97F4A7C15, uint64(i)), ent)
		evicted += ev
	}
	st := c.Stats()
	if st.Entries == 0 || st.Entries > 64 {
		t.Fatalf("entries %d outside (0, 64]", st.Entries)
	}
	if st.Bytes > st.Capacity {
		t.Fatalf("bytes %d exceed capacity %d", st.Bytes, st.Capacity)
	}
	if evicted == 0 {
		t.Fatal("stress load must evict")
	}
	// Whatever survived must still be retrievable and intact.
	found := 0
	for i := 0; i < 1000; i++ {
		if got, err := c.Get(fpOf(uint64(i)*0x9E3779B97F4A7C15, uint64(i))); err == nil {
			found++
			if len(got.Scheme) != 2 {
				t.Fatalf("surviving entry %d corrupted: %+v", i, got)
			}
		}
	}
	if found != st.Entries {
		t.Fatalf("found %d entries, stats say %d", found, st.Entries)
	}
}

func ExampleCache() {
	cache := New(1<<20, 4)
	fp := graph.Fingerprint{Hi: 42, Lo: 7}
	cache.Insert(fp, Entry{Scheme: core.Scheme{{A: 0, B: 1}}, N: 2, M: 1, Cost: 2, Solver: "exact"})
	ent, err := cache.Get(fp)
	fmt.Println(err, ent.Solver, ent.Cost)
	// Output: <nil> exact 2
}
