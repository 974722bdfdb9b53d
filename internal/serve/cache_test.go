package serve

import (
	"testing"

	"streach"
)

func key(kind queryKind, src, dst int, lo, hi int) cacheKey {
	return cacheKey{
		kind: kind,
		src:  streach.ObjectID(src), dst: streach.ObjectID(dst),
		lo: streach.Tick(lo), hi: streach.Tick(hi),
	}
}

// TestCacheInvalidateOverlappingExact pins the invalidation contract: an
// ingest at tick range iv drops exactly the entries whose interval
// overlaps iv, nothing more.
func TestCacheInvalidateOverlappingExact(t *testing.T) {
	c := newResultCache(16)
	early := key(kindReachable, 1, 2, 0, 10)
	late := key(kindReachable, 1, 2, 20, 30)
	spanning := key(kindSet, 3, 0, 5, 25)
	for _, k := range []cacheKey{early, late, spanning} {
		c.put(k, "v")
	}

	if dropped := c.invalidateOverlapping(streach.NewInterval(12, 18)); dropped != 1 {
		t.Fatalf("invalidate [12,18] dropped %d entries, want 1 (the spanning one)", dropped)
	}
	if _, ok := c.get(spanning); ok {
		t.Error("entry [5,25] survived an overlapping invalidation")
	}
	if _, ok := c.get(early); !ok {
		t.Error("entry [0,10] dropped by a non-overlapping invalidation")
	}
	if _, ok := c.get(late); !ok {
		t.Error("entry [20,30] dropped by a non-overlapping invalidation")
	}

	// A single-tick ingest at the boundary drops the touching entry.
	if dropped := c.invalidateOverlapping(streach.NewInterval(10, 10)); dropped != 1 {
		t.Fatalf("invalidate [10,10] dropped %d entries, want 1", dropped)
	}
	if _, ok := c.get(early); ok {
		t.Error("entry [0,10] survived invalidation at its boundary tick")
	}
	if got := c.invalidated.Load(); got != 2 {
		t.Errorf("invalidated counter = %d, want 2", got)
	}
}

// TestCachePutFreshDiscardsStale pins the evaluate-then-put race contract:
// a result computed before an overlapping invalidation must not enter the
// cache, while non-overlapping invalidations don't block the put.
func TestCachePutFreshDiscardsStale(t *testing.T) {
	c := newResultCache(16)
	k := key(kindReachable, 1, 2, 0, 10)

	// An ingest at the entry's upper-bound tick lands between evaluation
	// (version captured) and the put: the stale result must be discarded.
	ver := c.version()
	c.invalidateOverlapping(streach.NewInterval(10, 10))
	if c.putFresh(k, "stale", ver) {
		t.Error("putFresh stored a result evaluated before an overlapping invalidation")
	}
	if _, ok := c.get(k); ok {
		t.Error("stale result is served from the cache")
	}
	if c.staleDrops.Load() != 1 {
		t.Errorf("staleDrops = %d, want 1", c.staleDrops.Load())
	}

	// A non-overlapping invalidation in the window doesn't poison the put.
	ver = c.version()
	c.invalidateOverlapping(streach.NewInterval(50, 50))
	if !c.putFresh(k, "fresh", ver) {
		t.Error("putFresh dropped a result despite only non-overlapping invalidations")
	}
	if v, ok := c.get(k); !ok || v != "fresh" {
		t.Errorf("cache holds %v, want the fresh result", v)
	}

	// No invalidation at all: the plain fast path.
	k2 := key(kindReachable, 3, 4, 0, 10)
	if !c.putFresh(k2, "v", c.version()) {
		t.Error("putFresh dropped a result with no intervening invalidation")
	}
}

// TestCachePutFreshLogOverflow checks that a version older than the
// invalidation log's reach is treated as unverifiable: the put is
// conservatively dropped even though no logged record overlaps.
func TestCachePutFreshLogOverflow(t *testing.T) {
	c := newResultCache(16)
	k := key(kindReachable, 1, 2, 0, 10)
	ver := c.version()
	for i := 0; i < invalLogCap+8; i++ {
		c.invalidateOverlapping(streach.NewInterval(100, 100)) // never overlaps k
	}
	if c.putFresh(k, "v", ver) {
		t.Error("putFresh trusted a version the invalidation log no longer covers")
	}
	// A freshly captured version is verifiable again.
	if !c.putFresh(k, "v", c.version()) {
		t.Error("putFresh dropped a result captured after the overflow")
	}
}

// TestCacheKeySemanticsDistinct ensures semantics parameters participate in
// the key: the same (src, dst, interval) under different hop bounds or k
// must not collide.
func TestCacheKeySemanticsDistinct(t *testing.T) {
	c := newResultCache(16)
	a := key(kindReachable, 1, 2, 0, 10)
	b := a
	b.sem.MaxHops = 3
	c.put(a, "unbounded")
	c.put(b, "bounded")
	if v, _ := c.get(a); v != "unbounded" {
		t.Errorf("unbounded key returned %v", v)
	}
	if v, _ := c.get(b); v != "bounded" {
		t.Errorf("hop-bounded key returned %v", v)
	}
	// The §7 extension parameters must be just as distinguishing.
	d := a
	d.sem.MinDuration = 5
	e := a
	e.sem.Prob, e.sem.ProbThreshold = 0.7, 0.3
	c.put(d, "filtered")
	c.put(e, "probabilistic")
	if v, _ := c.get(a); v != "unbounded" {
		t.Errorf("plain key collided with an extension key: %v", v)
	}
	if v, _ := c.get(d); v != "filtered" {
		t.Errorf("min-duration key returned %v", v)
	}
	if v, _ := c.get(e); v != "probabilistic" {
		t.Errorf("probabilistic key returned %v", v)
	}
}

// TestCacheLRUEviction checks capacity enforcement evicts the least
// recently used entry.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	k1, k2, k3 := key(kindReachable, 1, 0, 0, 1), key(kindReachable, 2, 0, 0, 1), key(kindReachable, 3, 0, 0, 1)
	c.put(k1, 1)
	c.put(k2, 2)
	c.get(k1) // k1 becomes most recently used; k2 is now the LRU victim
	c.put(k3, 3)
	if _, ok := c.get(k2); ok {
		t.Error("LRU victim k2 still cached after overflow")
	}
	if _, ok := c.get(k1); !ok {
		t.Error("recently used k1 evicted instead of the LRU victim")
	}
	if c.evicted.Load() != 1 {
		t.Errorf("evicted counter = %d, want 1", c.evicted.Load())
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// TestCacheDisabled checks a non-positive capacity turns the cache off
// entirely.
func TestCacheDisabled(t *testing.T) {
	c := newResultCache(-1)
	k := key(kindReachable, 1, 2, 0, 10)
	c.put(k, "v")
	if _, ok := c.get(k); ok {
		t.Error("disabled cache returned a hit")
	}
	if c.invalidateOverlapping(streach.NewInterval(0, 100)) != 0 {
		t.Error("disabled cache reported invalidations")
	}
}
