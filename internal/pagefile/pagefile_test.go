package pagefile

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestAppendAndReadBlob(t *testing.T) {
	st := NewStore(0)
	data := []byte("hello spatiotemporal world")
	ref := st.AppendBlob(data)
	got, err := Whole(st.ReadBlob(ref, nil))
	if err != nil {
		t.Fatalf("ReadBlob: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round-trip mismatch: %q", got)
	}
}

func TestBlobSpanningMultiplePages(t *testing.T) {
	st := NewStore(0)
	data := make([]byte, 3*PageSize+17)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	ref := st.AppendBlob(data)
	if st.NumPages() != 4 {
		t.Fatalf("NumPages = %d, want 4", st.NumPages())
	}
	got, err := Whole(st.ReadBlob(ref, nil))
	if err != nil {
		t.Fatalf("ReadBlob: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-page round-trip mismatch")
	}
}

func TestEmptyBlob(t *testing.T) {
	st := NewStore(0)
	ref := st.AppendBlob(nil)
	got, err := Whole(st.ReadBlob(ref, nil))
	if err != nil {
		t.Fatalf("ReadBlob: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty blob read back %d bytes", len(got))
	}
}

func TestSequentialVsRandomAccounting(t *testing.T) {
	st := NewStore(0)
	big := make([]byte, 5*PageSize)
	refBig := st.AppendBlob(big) // pages 0..5
	small := []byte("x")
	refSmall := st.AppendBlob(small) // page 6

	var s Stats
	if _, err := Whole(st.ReadBlob(refBig, &s)); err != nil {
		t.Fatal(err)
	}
	// First page random, remaining 5 sequential.
	if s.RandomReads != 1 || s.SequentialReads != 5 {
		t.Fatalf("big blob: random=%d sequential=%d, want 1/5", s.RandomReads, s.SequentialReads)
	}
	// Reading the next physical page continues the sequential run.
	if _, err := Whole(st.ReadBlob(refSmall, &s)); err != nil {
		t.Fatal(err)
	}
	if s.RandomReads != 1 || s.SequentialReads != 6 {
		t.Fatalf("adjacent blob: random=%d sequential=%d, want 1/6", s.RandomReads, s.SequentialReads)
	}
	// Jumping backwards is random.
	if _, err := Whole(st.ReadBlob(refBig, &s)); err != nil {
		t.Fatal(err)
	}
	if s.RandomReads != 2 {
		t.Fatalf("backward jump: random=%d, want 2", s.RandomReads)
	}
	wantNorm := 2 + 11.0/20
	if got := s.Normalized(); got != wantNorm {
		t.Fatalf("Normalized = %v, want %v", got, wantNorm)
	}
	// The store totals mirror the single stream's classification.
	if c := st.Counters(); c.RandomReads != s.RandomReads || c.SequentialReads != s.SequentialReads {
		t.Fatalf("Counters = %+v, want random=%d sequential=%d", c, s.RandomReads, s.SequentialReads)
	}
	s.Reset()
	if s.RandomReads != 0 || s.SequentialReads != 0 || s.Normalized() != 0 {
		t.Fatal("Reset did not zero counters")
	}
	st.ResetCounters()
	if c := st.Counters(); c.RandomReads != 0 || c.SequentialReads != 0 {
		t.Fatalf("ResetCounters left %+v", c)
	}
}

func TestBufferPoolAvoidsIO(t *testing.T) {
	st := NewStore(16)
	ref := st.AppendBlob([]byte("cached"))
	if _, err := Whole(st.ReadBlob(ref, nil)); err != nil {
		t.Fatal(err)
	}
	first := st.Counters().RandomReads
	if _, err := Whole(st.ReadBlob(ref, nil)); err != nil {
		t.Fatal(err)
	}
	if st.Counters().RandomReads != first {
		t.Fatal("second read should hit the buffer pool")
	}
	if st.Counters().BufferHits == 0 {
		t.Fatal("expected buffer hits")
	}
	st.DropCache()
	if _, err := Whole(st.ReadBlob(ref, nil)); err != nil {
		t.Fatal(err)
	}
	if st.Counters().RandomReads == first {
		t.Fatal("read after DropCache should hit disk")
	}
}

func TestPerStreamDeltasSumToStoreTotals(t *testing.T) {
	st := NewStore(8)
	refs := make([]BlobRef, 20)
	for i := range refs {
		refs[i] = st.AppendBlob(bytes.Repeat([]byte{byte(i)}, 100+i*97))
	}
	st.ResetCounters()

	const workers = 8
	deltas := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				if _, err := Whole(st.ReadBlob(refs[rng.Intn(len(refs))], &deltas[w])); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var sum Stats
	for i := range deltas {
		sum.Add(deltas[i])
	}
	c := st.Counters()
	if sum.RandomReads != c.RandomReads || sum.SequentialReads != c.SequentialReads || sum.BufferHits != c.BufferHits {
		t.Fatalf("per-stream sum %+v != store totals %+v", sum, c)
	}
	ps := st.Pool().Stats()
	if ps.Hits != c.BufferHits {
		t.Fatalf("pool hits %d != store buffer hits %d", ps.Hits, c.BufferHits)
	}
	if ps.Misses != c.RandomReads+c.SequentialReads {
		t.Fatalf("pool misses %d != store reads %d", ps.Misses, c.RandomReads+c.SequentialReads)
	}
}

func TestSharedPoolAcrossStores(t *testing.T) {
	pool := NewBufferPool(64)
	a := NewStoreShared(pool)
	b := NewStoreShared(pool)
	refA := a.AppendBlob([]byte("store a"))
	refB := b.AppendBlob([]byte("store b"))
	if refA.Page != refB.Page {
		t.Fatalf("both stores should start at page 0 (got %d, %d)", refA.Page, refB.Page)
	}
	if _, err := Whole(a.ReadBlob(refA, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := Whole(b.ReadBlob(refB, nil)); err != nil {
		t.Fatal(err)
	}
	// Same physical page number, different stores: both must be resident.
	gotA, err := Whole(a.ReadBlob(refA, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, []byte("store a")) {
		t.Fatalf("shared pool returned wrong payload: %q", gotA)
	}
	if a.Counters().BufferHits == 0 || b.Counters().RandomReads == 0 {
		t.Fatalf("unexpected counters: a=%+v b=%+v", a.Counters(), b.Counters())
	}
	// DropCache on a must not evict b's pages.
	a.DropCache()
	before := b.Counters().BufferHits
	if _, err := Whole(b.ReadBlob(refB, nil)); err != nil {
		t.Fatal(err)
	}
	if b.Counters().BufferHits != before+1 {
		t.Fatal("DropCache on store a evicted store b's page")
	}
}

func TestReadBlobErrors(t *testing.T) {
	st := NewStore(0)
	ref := st.AppendBlob([]byte("data"))

	if _, err := Whole(st.ReadBlob(BlobRef{Page: 99, Bytes: 32}, nil)); err == nil {
		t.Error("out-of-range blob accepted")
	}
	if _, err := Whole(st.ReadBlob(BlobRef{Page: 0, Bytes: 2}, nil)); err == nil {
		t.Error("undersized blob accepted")
	}
	// Corrupt the payload: checksum must catch it.
	if err := st.CorruptPage(ref.Page, blobHeaderSize+1); err != nil {
		t.Fatal(err)
	}
	_, err := Whole(st.ReadBlob(ref, nil))
	if !errors.Is(err, ErrCorruptBlob) {
		t.Errorf("corrupted read returned %v, want ErrCorruptBlob", err)
	}
	if err := st.CorruptPage(12345, 0); err == nil {
		t.Error("CorruptPage of missing page should fail")
	}
}

func TestCorruptionVisibleThroughPool(t *testing.T) {
	st := NewStore(8)
	ref := st.AppendBlob([]byte("payload"))
	if _, err := Whole(st.ReadBlob(ref, nil)); err != nil {
		t.Fatal(err) // warm the cache
	}
	if err := st.CorruptPage(ref.Page, blobHeaderSize); err != nil {
		t.Fatal(err)
	}
	if _, err := Whole(st.ReadBlob(ref, nil)); !errors.Is(err, ErrCorruptBlob) {
		t.Errorf("cached corruption returned %v, want ErrCorruptBlob", err)
	}
}

// pageStore returns a store over pool holding n blobs of one full page each,
// blob i on page i: reading it is one access to page i, so the pool's
// per-page behaviour is observable through ReadBlob.
func pageStore(pool *BufferPool, n int) *Store {
	st := NewStoreShared(pool)
	for i := 0; i < n; i++ {
		st.AppendBlob(make([]byte, PageSize-blobHeaderSize))
	}
	return st
}

// touch reads page p of a pageStore and reports whether it hit the pool.
func touch(t testing.TB, st *Store, p int64) bool {
	t.Helper()
	var s Stats
	if _, err := Whole(st.ReadBlob(BlobRef{Page: p, Bytes: PageSize}, &s)); err != nil {
		t.Error(err)
	}
	return s.BufferHits == 1
}

func TestBufferPoolLRUWithinShard(t *testing.T) {
	// Capacity 1 ⇒ one shard: global LRU semantics are exact and the
	// classic eviction order is observable.
	bp := NewBufferPool(1)
	st := pageStore(bp, 3)
	if touch(t, st, 1) {
		t.Fatal("first access of page 1 hit")
	}
	if touch(t, st, 2) { // evicts 1
		t.Fatal("first access of page 2 hit")
	}
	if !touch(t, st, 2) {
		t.Fatal("page 2 should be cached")
	}
	if bp.Len() != 1 {
		t.Fatalf("Len = %d, want 1", bp.Len())
	}
	if ev := bp.Stats().Evictions; ev != 1 {
		t.Fatalf("Evictions = %d, want 1", ev)
	}
	if touch(t, st, 1) {
		t.Fatal("page 1 should have been evicted")
	}
	if s := bp.Stats(); s.Hits != 1 || s.Misses != 3 || s.Evictions != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 3 misses, 2 evictions", s)
	}
}

func TestBufferPoolUpdateAndEvict(t *testing.T) {
	bp := NewBufferPool(2)
	st := pageStore(bp, 3)
	touch(t, st, 1)
	if !touch(t, st, 1) { // re-access, no growth
		t.Fatal("re-access missed")
	}
	if bp.Len() != 1 {
		t.Fatalf("Len after re-access = %d, want 1", bp.Len())
	}
	st.uncache(1)
	if bp.Len() != 0 {
		t.Fatal("evicted page still cached")
	}
	if touch(t, st, 1) {
		t.Fatal("access after Evict hit")
	}
	st.uncache(2) // not resident: a no-op that must not panic
	bp.Clear()
	if bp.Len() != 0 {
		t.Fatal("Clear left entries")
	}
	if ev := bp.Stats().Evictions; ev != 0 {
		t.Fatalf("explicit evictions counted as capacity evictions: %d", ev)
	}
}

// lruModel is the reference one pool shard must match access for access: a
// slice of page keys ordered most recently used first.
type lruModel[K comparable] struct {
	capacity int
	pages    []K
}

func (m *lruModel[K]) evict(p K) bool {
	for i, q := range m.pages {
		if q == p {
			m.pages = append(m.pages[:i], m.pages[i+1:]...)
			return true
		}
	}
	return false
}

func (m *lruModel[K]) touch(p K) (hit, evicted bool) {
	hit = m.evict(p)
	if !hit && len(m.pages) == m.capacity {
		m.pages = m.pages[:m.capacity-1]
		evicted = true
	}
	m.pages = append([]K{p}, m.pages...)
	return hit, evicted
}

func TestBufferPoolStress(t *testing.T) {
	// Random ops on a one-shard pool: every outcome and every counter must
	// match the reference LRU, so recycling the evicted frame for the
	// incoming page, and moving the last frame into the hole an explicit
	// eviction leaves, loses neither a resident page nor its recency.
	bp := NewBufferPool(8)
	st := pageStore(bp, 32)
	model := lruModel[int64]{capacity: 8}
	var want PoolStats
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		p := int64(rng.Intn(32))
		if rng.Intn(3) == 2 {
			st.uncache(p)
			model.evict(p)
		} else {
			hit, evicted := model.touch(p)
			if got := touch(t, st, p); got != hit {
				t.Fatalf("op %d: touch(%d) hit = %v, reference LRU says %v", i, p, got, hit)
			}
			if hit {
				want.Hits++
			} else {
				want.Misses++
			}
			if evicted {
				want.Evictions++
			}
		}
		if bp.Len() != len(model.pages) {
			t.Fatalf("op %d: Len = %d, reference LRU holds %d", i, bp.Len(), len(model.pages))
		}
	}
	want.Resident, want.Capacity = len(model.pages), 8
	if got := bp.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestBufferPoolConcurrentStress(t *testing.T) {
	bp := NewBufferPool(32)
	stores := []*Store{pageStore(bp, 64), pageStore(bp, 64), pageStore(bp, 64)}
	var touches atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			st := stores[w%3]
			for i := 0; i < 3000; i++ {
				p := int64(rng.Intn(64))
				if rng.Intn(4) == 3 {
					st.uncache(p)
					continue
				}
				touch(t, st, p)
				touches.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if bp.Len() > 32 {
		t.Fatalf("capacity exceeded: %d", bp.Len())
	}
	s := bp.Stats()
	if s.Hits+s.Misses != touches.Load() {
		t.Fatalf("hits %d + misses %d != %d accesses", s.Hits, s.Misses, touches.Load())
	}
	if s.Evictions > s.Misses {
		t.Fatalf("%d evictions from %d misses", s.Evictions, s.Misses)
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.Uint32(42)
	e.Int32(-7)
	e.Uint64(1 << 40)
	e.Int64(-1 << 40)
	e.Float64(3.25)

	d := NewDecoder(e.Bytes())
	if v := d.Uint32(); v != 42 {
		t.Errorf("Uint32 = %d", v)
	}
	if v := d.Int32(); v != -7 {
		t.Errorf("Int32 = %d", v)
	}
	if v := d.Uint64(); v != 1<<40 {
		t.Errorf("Uint64 = %d", v)
	}
	if v := d.Int64(); v != -1<<40 {
		t.Errorf("Int64 = %d", v)
	}
	if v := d.Float64(); v != 3.25 {
		t.Errorf("Float64 = %v", v)
	}
	if d.Err() != nil {
		t.Errorf("Err = %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d", d.Remaining())
	}
}

func TestDecoderErrors(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if d.Uint32(); d.Err() == nil {
		t.Error("short read should error")
	}
	// After the first error all reads return zero values.
	if v := d.Uint64(); v != 0 {
		t.Error("post-error read should be 0")
	}

	// Implausible slice length.
	e := NewEncoder(8)
	e.Uvarint(1 << 30)
	d2 := NewDecoder(e.Bytes())
	if d2.Int32SliceDelta(); d2.Err() == nil {
		t.Error("oversized slice length should error")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.Uint32(1)
	if e.Len() != 4 {
		t.Fatalf("Len = %d", e.Len())
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestNullBlobRef(t *testing.T) {
	var r BlobRef
	if !r.Null() {
		t.Error("zero BlobRef should be Null")
	}
	if (BlobRef{Page: 3, Bytes: 10}).Null() {
		t.Error("real BlobRef reported Null")
	}
}

// TestPoolGenerationChangesWhenAPageLeaves pins the contract readers keep
// derived state under: hits, and misses that fill free frames, leave the
// generation alone; a displacement, Evict, EvictStore and Clear change it.
func TestPoolGenerationChangesWhenAPageLeaves(t *testing.T) {
	bp := NewBufferPool(4)
	a, b := pageStore(bp, 5), pageStore(bp, 1)
	gen := bp.Generation()
	same := func(what string) {
		t.Helper()
		if g := bp.Generation(); g != gen {
			t.Fatalf("%s changed the generation (%d → %d) though no page left the pool", what, gen, g)
		}
	}
	changed := func(what string) {
		t.Helper()
		g := bp.Generation()
		if g == gen {
			t.Fatalf("%s left the generation at %d", what, gen)
		}
		gen = g
	}
	for p := int64(0); p < 4; p++ {
		touch(t, a, p)
	}
	same("filling free frames")
	for p := int64(0); p < 4; p++ {
		if !touch(t, a, p) {
			t.Fatalf("page %d not resident", p)
		}
	}
	same("a hit")
	touch(t, a, 4)
	changed("a displacement")
	a.uncache(4)
	changed("Evict")
	a.DropCache() // a shared store: EvictStore
	changed("EvictStore")
	touch(t, b, 0)
	same("a miss into a free frame")
	bp.Clear()
	changed("Clear")
}
