package userdb

import (
	"sync"
	"testing"
	"time"

	"gosip/internal/metrics"
)

func TestCacheHitSkipsRoundTrip(t *testing.T) {
	prof := metrics.NewProfile()
	db := New(Config{
		LookupLatency: 10 * time.Millisecond,
		Cache:         CacheConfig{Entries: 64},
	}, prof)
	db.Provision(User{Username: "a", Domain: "d", Password: "pw"})

	// Miss: pays the round-trip and fills the cache.
	if _, err := db.Lookup("a", "d"); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	start := time.Now()
	u, err := db.Lookup("a", "d")
	hitTime := time.Since(start)
	if err != nil || u.Password != "pw" {
		t.Fatalf("cached Lookup = %+v, %v", u, err)
	}
	if hitTime > 5*time.Millisecond {
		t.Errorf("cache hit took %v, should skip the 10ms round-trip", hitTime)
	}
	if h := prof.Counter(metrics.MetricAuthCacheHits).Value(); h != 1 {
		t.Errorf("hits = %d, want 1", h)
	}
	if m := prof.Counter(metrics.MetricAuthCacheMisses).Value(); m != 1 {
		t.Errorf("misses = %d, want 1", m)
	}
	// The hit must not touch the DB timer: one recorded query, not two.
	if c := prof.Timer(metrics.MetricDBLookupTime).Count(); c != 1 {
		t.Errorf("db lookups = %d, want 1 (hit went to the backend)", c)
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	prof := metrics.NewProfile()
	db := New(Config{}, prof)
	db.Provision(User{Username: "a", Domain: "d"})
	db.Lookup("a", "d")
	db.Lookup("a", "d")
	if h := prof.Counter(metrics.MetricAuthCacheHits).Value(); h != 0 {
		t.Errorf("hits = %d with cache disabled", h)
	}
	if db.CacheLen() != 0 {
		t.Errorf("CacheLen = %d with cache disabled", db.CacheLen())
	}
}

func TestCacheTTLExpires(t *testing.T) {
	prof := metrics.NewProfile()
	db := New(Config{Cache: CacheConfig{Entries: 8, TTL: time.Millisecond}}, prof)
	db.Provision(User{Username: "a", Domain: "d"})
	db.Lookup("a", "d") // fill
	time.Sleep(5 * time.Millisecond)
	db.Lookup("a", "d") // lapsed: must re-fetch
	if m := prof.Counter(metrics.MetricAuthCacheMisses).Value(); m != 2 {
		t.Errorf("misses = %d, want 2 (TTL lapse must miss)", m)
	}
}

func TestCacheEvictsAtCapacity(t *testing.T) {
	prof := metrics.NewProfile()
	// 8 entries over (rounded) 1 shard so capacity is deterministic.
	db := New(Config{Cache: CacheConfig{Entries: 8, Shards: 1}}, prof)
	db.ProvisionN(32, "d")
	for i := 0; i < 32; i++ {
		if _, err := db.Lookup(UserName(i), "d"); err != nil {
			t.Fatalf("Lookup %d: %v", i, err)
		}
	}
	if n := db.CacheLen(); n > 8 {
		t.Errorf("CacheLen = %d, cap 8 not enforced", n)
	}
	if ev := prof.Counter(metrics.MetricAuthCacheEvictions).Value(); ev != 24 {
		t.Errorf("evictions = %d, want 24", ev)
	}
}

func TestProvisionInvalidatesCache(t *testing.T) {
	prof := metrics.NewProfile()
	db := New(Config{Cache: CacheConfig{Entries: 8}}, prof)
	db.Provision(User{Username: "a", Domain: "d", Password: "old"})
	db.Lookup("a", "d") // fill with "old"
	db.Provision(User{Username: "a", Domain: "d", Password: "new"})
	u, err := db.Lookup("a", "d")
	if err != nil || u.Password != "new" {
		t.Errorf("after re-provision: %+v, %v (stale cache?)", u, err)
	}
}

// TestSQLBackend checks the database-backed registrar tier: a modelled
// per-query round-trip in front of the in-memory table. Every lookup pays
// it, and the user comes back intact.
func TestSQLBackend(t *testing.T) {
	prof := metrics.NewProfile()
	db := New(Config{LookupLatency: 10 * time.Millisecond}, prof)
	db.Provision(User{Username: "a", Domain: "d", Password: "pw"})
	start := time.Now()
	u, err := db.Lookup("a", "d")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("database-tier lookup took %v, want >= 10ms", elapsed)
	}
	if u.Password != "pw" {
		t.Errorf("Password = %q, want %q", u.Password, "pw")
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
}

// TestQueueWaitSeparatedFromQueryTime pins the satellite fix: pool-slot
// wait lands in stage.db_queue, and stage.db_lookup sees only the query
// itself — serialized callers must not inflate the query histogram.
func TestQueueWaitSeparatedFromQueryTime(t *testing.T) {
	prof := metrics.NewProfile()
	db := New(Config{LookupLatency: 10 * time.Millisecond, PoolSize: 1}, prof)
	db.Provision(User{Username: "a", Domain: "d"})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db.Lookup("a", "d")
		}()
	}
	wg.Wait()

	snap := prof.Snapshot()
	queue := snap.Histograms[metrics.StageDBQueue]
	query := snap.Histograms[metrics.StageDBLookup]
	if queue.Count != 3 || query.Count != 3 {
		t.Fatalf("histogram counts: queue=%d query=%d, want 3 each", queue.Count, query.Count)
	}
	// The third caller queued behind two 10ms queries (~20ms).
	if queue.P99() < 8*time.Millisecond {
		t.Errorf("queue P99 = %v, expected pool wait to register", queue.P99())
	}
	// Each query itself is ~10ms; with log2 buckets that's <= the 16ms
	// bucket. The old bug put the 20ms+ pool wait here too.
	if query.P99() > 20*time.Millisecond {
		t.Errorf("query P99 = %v, pool wait is polluting stage.db_lookup", query.P99())
	}
}

func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
}

// TestLookupAllocs pins the in-memory lookup at zero allocations: the
// "username@domain" key is assembled in a stack buffer and the backend map
// is probed in place. Every authenticated request performs at least one
// lookup, so this path runs millions of times per experiment.
func TestLookupAllocs(t *testing.T) {
	skipIfRace(t)
	db := New(Config{}, metrics.NewProfile())
	db.Provision(User{Username: "alice", Domain: "example.com"})

	got := testing.AllocsPerRun(1000, func() {
		if _, err := db.Lookup("alice", "example.com"); err != nil {
			t.Fatal("Lookup failed during alloc run")
		}
	})
	if got != 0 {
		t.Errorf("Lookup allocates %.1f/op, want 0", got)
	}

	got = testing.AllocsPerRun(1000, func() {
		if _, err := db.Lookup("nobody", "example.com"); err != ErrNotFound {
			t.Fatal("unexpected hit")
		}
	})
	if got != 0 {
		t.Errorf("Lookup miss allocates %.1f/op, want 0", got)
	}
}

// TestCacheHitAllocs pins the credential-cache hit at zero allocations:
// the stack key probes the cache shard map in place.
func TestCacheHitAllocs(t *testing.T) {
	skipIfRace(t)
	db := New(Config{Cache: CacheConfig{Entries: 64}}, metrics.NewProfile())
	db.Provision(User{Username: "alice", Domain: "example.com"})
	db.Lookup("alice", "example.com") // fill

	got := testing.AllocsPerRun(1000, func() {
		if _, err := db.Lookup("alice", "example.com"); err != nil {
			t.Fatal("cached Lookup failed during alloc run")
		}
	})
	if got != 0 {
		t.Errorf("cache-hit Lookup allocates %.1f/op, want 0", got)
	}
}

func TestConcurrentCachedLookups(t *testing.T) {
	db := New(Config{Cache: CacheConfig{Entries: 128}}, metrics.NewProfile())
	db.ProvisionN(64, "d")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if _, err := db.Lookup(UserName(i%64), "d"); err != nil {
					t.Errorf("Lookup: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
