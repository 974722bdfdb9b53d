// The query-result cache of one Server, hence of one engine. Results are
// keyed on (query kind, src, dst, interval, semantics parameters) and
// tagged with the query's tick interval; invalidation is interval-overlap
// driven — when new data lands at tick t (a LiveEngine ingest) or a slab
// [lo, hi] seals, exactly the entries whose interval overlaps the changed
// ticks are dropped. Because a reachability answer over [lo, hi] depends
// only on contacts within [lo, hi], entries outside the changed range
// remain provably fresh; over a frozen dataset no invalidation ever happens
// and the cache is always valid.

package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"streach"
)

// queryKind discriminates the cacheable query classes within one key space.
type queryKind uint8

const (
	kindReachable queryKind = iota + 1
	kindSet
	kindArrival
	kindTopK
)

// cacheKey identifies one cacheable query exactly. All fields participate
// in equality; fields irrelevant to a kind stay zero.
type cacheKey struct {
	kind     queryKind
	src, dst streach.ObjectID
	lo, hi   streach.Tick
	// sem is the full semantics block of a point query (hop bound, arrival
	// tracking, contact predicates, probability). Semantics is comparable,
	// so distinct filtered/probabilistic parameterizations can never collide
	// on one cache slot.
	sem   streach.Semantics
	k     int
	decay float64
}

// interval returns the tick range the cached answer depends on.
func (k cacheKey) interval() streach.Interval {
	return streach.Interval{Lo: k.lo, Hi: k.hi}
}

type cacheEntry struct {
	key   cacheKey
	value any
}

// invalLogCap bounds how many recent invalidations the cache remembers for
// freshness checks; versions older than the log's reach are treated as
// unverifiable and their puts are conservatively dropped.
const invalLogCap = 256

// invalRecord is one logged invalidation: the version it produced and the
// tick interval it covered.
type invalRecord struct {
	ver uint64
	iv  streach.Interval
}

// resultCache is a mutex-guarded LRU over cacheKey with interval-overlap
// invalidation. The value is the fully rendered response payload; hits
// serve it without touching the engine.
//
// Handlers evaluate outside the cache lock, so an ingest can land between
// the engine evaluation and the put; inserting the pre-ingest result then
// would serve it stale until the next overlapping invalidation (forever,
// when no future tick overlaps the entry's interval again). To close that
// race the cache is versioned: every invalidation bumps ver and is logged,
// handlers capture version() before evaluating and store through
// putFresh, which discards the value if an invalidation overlapping its
// interval occurred since the captured version.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front: most recently used; values are *cacheEntry
	entries map[cacheKey]*list.Element

	ver      uint64        // bumped on every invalidation, under mu
	invalLog []invalRecord // most recent invalidations, oldest first, under mu

	hits, misses, invalidated, evicted, staleDrops atomic.Int64
}

// newResultCache returns a cache holding at most capacity entries; a
// non-positive capacity disables caching (every get misses, puts drop).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[cacheKey]*list.Element),
	}
}

func (c *resultCache) enabled() bool { return c.cap > 0 }

// get returns the cached value for k, marking it most recently used.
func (c *resultCache) get(k cacheKey) (any, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).value, true
}

// put stores v under k, evicting the least recently used entry when full.
func (c *resultCache) put(k cacheKey, v any) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(k, v)
}

// version returns the current invalidation version, to be captured before
// an evaluation and handed to putFresh.
func (c *resultCache) version() uint64 {
	if !c.enabled() {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ver
}

// putFresh stores v under k only if no invalidation overlapping k's
// interval occurred since version ver was read; a discarded stale value
// reports false.
func (c *resultCache) putFresh(k cacheKey, v any, ver uint64) bool {
	if !c.enabled() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.staleSince(k, ver) {
		c.staleDrops.Add(1)
		return false
	}
	c.putLocked(k, v)
	return true
}

// staleSince reports whether an invalidation overlapping k's interval
// landed after version ver was read. When the log no longer reaches back
// to ver the answer is conservatively true.
func (c *resultCache) staleSince(k cacheKey, ver uint64) bool {
	if c.ver == ver {
		return false
	}
	// Each bump appends exactly one record, so the log covers the versions
	// (invalLog[0].ver-1, c.ver]; ver outside that range is unverifiable.
	if len(c.invalLog) == 0 || c.invalLog[0].ver > ver+1 {
		return true
	}
	for i := len(c.invalLog) - 1; i >= 0; i-- {
		rec := c.invalLog[i]
		if rec.ver <= ver {
			break
		}
		if k.interval().Overlaps(rec.iv) {
			return true
		}
	}
	return false
}

func (c *resultCache) putLocked(k cacheKey, v any) {
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).value = v
		c.lru.MoveToFront(el)
		return
	}
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, value: v})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evicted.Add(1)
	}
}

// invalidateOverlapping drops exactly the entries whose interval overlaps
// iv — the set of cached answers the changed ticks can affect — and
// returns how many were dropped. The scan is O(entries); at serving-cache
// sizes (thousands of entries) that is microseconds per ingested instant.
func (c *resultCache) invalidateOverlapping(iv streach.Interval) int {
	if !c.enabled() {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.interval().Overlaps(iv) {
			c.lru.Remove(el)
			delete(c.entries, e.key)
			dropped++
		}
		el = next
	}
	c.invalidated.Add(int64(dropped))
	c.ver++
	c.invalLog = append(c.invalLog, invalRecord{ver: c.ver, iv: iv})
	if len(c.invalLog) > invalLogCap {
		c.invalLog = append(c.invalLog[:0], c.invalLog[len(c.invalLog)-invalLogCap:]...)
	}
	return dropped
}

// len returns the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// hitRate returns hits / (hits + misses), 0 before any lookup.
func (c *resultCache) hitRate() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
