package pagefile

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// readCase is one corner of the read path: extents of one page, of
// seventeen or of more than a window, read from a pool that holds them all
// (every page hits) or from one a quarter the size of a single pass or
// less, read round-robin (every page misses and displaces another: the
// steady-state miss/evict cycle). Pools of 16 pages have one shard, of 64
// four, of 256 and more sixteen.
type readCase struct {
	name                   string
	span, count, poolPages int
	hit                    bool
}

// missPool64 is graph-point's shape: extents read through a 64-page pool of
// four shards, nearly every page missing.
var missPool64 = readCase{"17page/miss/pool64", 17, 16, 64, false}

var readCases = []readCase{
	{"1page/hit", 1, 64, 256, true},
	{"1page/miss", 1, 64, 16, false},
	{"17page/hit", 17, 4, 256, true},
	{"17page/miss", 17, 4, 16, false},
	{"17page/hit/pool64", 17, 1, 64, true},
	missPool64,
	{"300page/hit", 300, 1, 1024, true},
	{"300page/miss/pool64", 300, 2, 64, false},
}

// readFixture is a readCase laid out: a store of count blobs of span pages
// each, every one filling its extent (so none shares a page), over a pool of
// poolPages.
type readFixture struct {
	st   *Store
	refs []BlobRef
	next int
}

func (c readCase) fixture() *readFixture {
	f := &readFixture{st: NewStore(c.poolPages)}
	rng := rand.New(rand.NewSource(int64(c.span)))
	for i := 0; i < c.count; i++ {
		data := make([]byte, c.span*PageSize-blobHeaderSize)
		rng.Read(data)
		f.refs = append(f.refs, f.st.AppendBlob(data))
	}
	return f
}

// read fetches the fixture's blobs round-robin.
func (f *readFixture) read(acct *Stats) ([]byte, error) {
	ref := f.refs[f.next%len(f.refs)]
	f.next++
	return Whole(f.st.ReadBlob(ref, acct))
}

// TestReadBlobDoesNotAllocate pins the mechanism: a blob read is a view of
// store memory, its pages pass through the pool in stack-sized windows, the
// pool reuses the frame of the page it displaces, and a nil accountant
// costs no heap Stats.
func TestReadBlobDoesNotAllocate(t *testing.T) {
	for _, c := range readCases {
		for _, withAcct := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/acct=%v", c.name, withAcct), func(t *testing.T) {
				f := c.fixture()
				var acct *Stats
				if withAcct {
					acct = new(Stats)
				}
				for range f.refs { // warm: fill the pool, reach the steady state
					if _, err := f.read(acct); err != nil {
						t.Fatal(err)
					}
				}
				before, poolBefore := f.st.Counters(), f.st.Pool().Stats()
				const runs = 200
				allocs := testing.AllocsPerRun(runs, func() {
					if _, err := f.read(acct); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("ReadBlob allocates %.1f objects per call, want 0", allocs)
				}
				// The cases are what they claim to be: all hits, or all
				// misses each displacing a page.
				after, poolAfter := f.st.Counters(), f.st.Pool().Stats()
				pages := int64((runs + 1) * c.span) // AllocsPerRun runs fn once more to warm up
				hits := after.BufferHits - before.BufferHits
				reads := after.RandomReads + after.SequentialReads - before.RandomReads - before.SequentialReads
				evictions := poolAfter.Evictions - poolBefore.Evictions
				if c.hit && (hits != pages || reads != 0 || evictions != 0) {
					t.Errorf("hit case: %d hits, %d reads, %d evictions over %d pages", hits, reads, evictions, pages)
				}
				if !c.hit && (hits != 0 || reads != pages || evictions != pages) {
					t.Errorf("miss case: %d hits, %d reads, %d evictions over %d pages", hits, reads, evictions, pages)
				}
			})
		}
	}
}

// TestReadBlobViewsAliasTheStore documents the aliasing contract: two reads
// of one blob return the same memory, and it is the store's own.
func TestReadBlobViewsAliasTheStore(t *testing.T) {
	st := NewStore(4)
	data := bytes.Repeat([]byte{7}, 2*PageSize)
	ref := st.AppendBlob(data)
	a, err := Whole(st.ReadBlob(ref, nil))
	if err != nil {
		t.Fatal(err)
	}
	st.DropCache()
	b, err := Whole(st.ReadBlob(ref, nil))
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] || len(a) != len(b) {
		t.Fatal("two reads of one blob returned different memory")
	}
	if !bytes.Equal(a, data) {
		t.Fatal("view does not hold the payload")
	}
	data[0] = 0 // the store copied the caller's bytes at AppendBlob
	if a[0] != 7 {
		t.Fatal("store aliases the buffer passed to AppendBlob")
	}
}

// TestForgedRefAcrossExtentsRejected: a reference that runs from one extent
// into the next names no blob; it must be refused, not served as a view
// past the end of the first extent's memory.
func TestForgedRefAcrossExtentsRejected(t *testing.T) {
	st := NewStore(0)
	a := st.AppendBlob(make([]byte, PageSize-blobHeaderSize))
	st.AppendBlob(make([]byte, 3*PageSize-blobHeaderSize))
	forged := BlobRef{Page: a.Page, Bytes: 2 * PageSize}
	if _, err := Whole(st.ReadBlob(forged, nil)); err == nil {
		t.Fatal("blob reference spanning two extents accepted")
	}
}

// TestCorruptPageRejectsNegativeOffset is the regression test for the
// negative index CorruptPage used to compute from offset % PageSize.
func TestCorruptPageRejectsNegativeOffset(t *testing.T) {
	st := NewStore(0)
	ref := st.AppendBlob([]byte("intact"))
	if err := st.CorruptPage(ref.Page, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := Whole(st.ReadBlob(ref, nil)); err != nil {
		t.Fatalf("refused corruption damaged the page: %v", err)
	}
}

// TestConcurrentViewsOverSharedPool runs readers of the same extents, in
// two stores over one small shared pool, so that views are handed out while
// other goroutines recycle the pool frames of the very pages they cover.
// Every read must verify, and the per-stream deltas must still sum exactly
// to each store's totals and to the pool's counters. Run under -race.
func TestConcurrentViewsOverSharedPool(t *testing.T) {
	// One shard, a third of the pages written.
	t.Run("1shard", func(t *testing.T) {
		concurrentViews(t, 24, []int{1, 17, 1, 1, 17, 1, 1, 1, 1, 1}, false)
	})
	// Four shards, extents longer than a window, and one goroutine dropping
	// pages while the others read: every removal moves a frame and rewrites
	// its residency entry under the readers' feet.
	t.Run("4shard/dropping", func(t *testing.T) {
		concurrentViews(t, 64, []int{1, 17, 150, 1, 3, 1, 140, 1, 1, 1}, true)
	})
}

func concurrentViews(t *testing.T, poolPages int, spans []int, dropping bool) {
	pool := NewBufferPool(poolPages)
	type blob struct {
		ref  BlobRef
		want []byte
	}
	stores := make([]*Store, 2)
	blobs := make([][]blob, 2)
	rng := rand.New(rand.NewSource(11))
	for s := range stores {
		stores[s] = NewStoreShared(pool)
		for _, span := range spans {
			data := make([]byte, span*PageSize-blobHeaderSize-rng.Intn(PageSize/2))
			rng.Read(data)
			blobs[s] = append(blobs[s], blob{stores[s].AppendBlob(data), data})
		}
	}

	done := make(chan struct{})
	var dropper sync.WaitGroup
	if dropping {
		dropper.Add(1)
		go func() {
			defer dropper.Done()
			rng := rand.New(rand.NewSource(99))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				st := stores[i%2]
				switch i % 4 {
				case 0:
					pool.evictStore(st.id)
				case 1:
					st.DropCache()
				case 2:
					st.uncache(int64(rng.Intn(int(st.NumPages()))))
				case 3:
					pool.Clear()
				}
				runtime.Gosched()
			}
		}()
	}

	const workers, reads = 8, 400
	deltas := make([][2]Stats, workers) // per worker, per store: one stream each
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < reads; i++ {
				s := rng.Intn(2)
				b := blobs[s][rng.Intn(len(blobs[s]))]
				got, err := Whole(stores[s].ReadBlob(b.ref, &deltas[w][s]))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, b.want) {
					t.Errorf("worker %d: wrong payload for %+v", w, b.ref)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	dropper.Wait()

	var all Stats
	for s, st := range stores {
		var sum Stats
		for w := range deltas {
			sum.Add(deltas[w][s])
		}
		c := st.Counters()
		if sum.RandomReads != c.RandomReads || sum.SequentialReads != c.SequentialReads || sum.BufferHits != c.BufferHits {
			t.Errorf("store %d: per-stream sum %+v != store totals %+v", s, sum, c)
		}
		all.Add(sum)
	}
	ps := pool.Stats()
	if ps.Hits != all.BufferHits || ps.Misses != all.RandomReads+all.SequentialReads {
		t.Errorf("pool %+v does not match the streams' %+v", ps, all)
	}
	if ps.Resident > ps.Capacity {
		t.Errorf("pool %+v holds more than its capacity", ps)
	}
	if !dropping && ps.Evictions != ps.Misses-int64(ps.Resident) {
		t.Errorf("pool %+v: every miss beyond the resident pages must have evicted one", ps)
	}
}

var sinkBlob []byte

// BenchmarkReadBlob measures the blob read path at its corners (see
// readCases); MB/s is payload verified and returned per second.
func BenchmarkReadBlob(b *testing.B) {
	for _, c := range readCases {
		b.Run(c.name, func(b *testing.B) {
			f := c.fixture()
			var acct Stats
			for range f.refs {
				if _, err := f.read(&acct); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(f.refs[0].Bytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := f.read(&acct)
				if err != nil {
					b.Fatal(err)
				}
				sinkBlob = data
			}
		})
	}
}

// BenchmarkReadBlobParallel is the two-client regime engine.scaling_2c
// measures, on graph-point's miss path (missPool64): GOMAXPROCS readers,
// each with its own accountant, read the blobs round-robin from their own
// starting points through one shared pool.
func BenchmarkReadBlobParallel(b *testing.B) {
	c := missPool64
	b.Run(c.name, func(b *testing.B) {
		f := c.fixture()
		for range f.refs {
			if _, err := f.read(nil); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(f.refs[0].Bytes))
		b.ReportAllocs()
		b.ResetTimer()
		var clients atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			var acct Stats
			next := int(clients.Add(1)) * 7
			for pb.Next() {
				if _, err := Whole(f.st.ReadBlob(f.refs[next%len(f.refs)], &acct)); err != nil {
					b.Error(err)
					return
				}
				next++
			}
		})
	})
}

// modelPage is a page of one of the stores poolModel follows.
type modelPage struct {
	store uint64
	page  int64
}

// poolModel is the reference a pool of any shard count must match: one
// strict LRU per shard, pages assigned by the pool's own shard function,
// touched one page at a time in ascending order — the read path before it
// was batched.
type poolModel struct {
	bp     *BufferPool
	shards []lruModel[modelPage]
	stats  PoolStats
}

func newPoolModel(bp *BufferPool) *poolModel {
	m := &poolModel{bp: bp, stats: PoolStats{Capacity: bp.Capacity()}}
	for i := range bp.shards {
		m.shards = append(m.shards, lruModel[modelPage]{capacity: bp.shards[i].capacity})
	}
	return m
}

func (m *poolModel) shard(k modelPage) *lruModel[modelPage] {
	return &m.shards[m.bp.shardOf(k.store, k.page)]
}

// read charges acct for the pages of ref as ReadBlob did page by page, and
// reports whether a page was displaced.
func (m *poolModel) read(st *Store, ref BlobRef, acct *Stats) (displaced bool) {
	numPages := (int64(ref.Off) + int64(ref.Bytes) + PageSize - 1) / PageSize
	for p := ref.Page; p < ref.Page+numPages; p++ {
		hit, evicted := m.shard(modelPage{st.id, p}).touch(modelPage{st.id, p})
		switch {
		case hit:
			m.stats.Hits++
			acct.BufferHits++
		default:
			m.stats.Misses++
			acct.sequential(p)
		}
		if evicted {
			m.stats.Evictions++
			displaced = true
		}
	}
	return displaced
}

func (m *poolModel) evict(st *Store, p int64) {
	m.shard(modelPage{st.id, p}).evict(modelPage{st.id, p})
}

// evictStore drops the pages of st; all of them when st is nil.
func (m *poolModel) evictStore(st *Store) {
	for i := range m.shards {
		sh := &m.shards[i]
		kept := sh.pages[:0]
		for _, k := range sh.pages {
			if st != nil && k.store != st.id {
				kept = append(kept, k)
			}
		}
		sh.pages = kept
	}
}

func (m *poolModel) poolStats() PoolStats {
	s := m.stats
	s.Resident = 0
	for _, sh := range m.shards {
		s.Resident += len(sh.pages)
	}
	return s
}

// TestBlobReadsMatchPageLRU drives pools of one, four and six shards, each
// shared by two stores, with seeded blob reads of 1 to 130 pages (the
// longest beyond a window) mixed with every way a page leaves the pool, and
// holds the batched read path to the page-at-a-time reference after every
// step: the accountant's hit, sequential and random deltas, Len, PoolStats,
// and whether Generation moved.
func TestBlobReadsMatchPageLRU(t *testing.T) {
	for _, poolPages := range []int{16, 64, 100} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("pool%d/seed%d", poolPages, seed), func(t *testing.T) {
				blobReadsMatchPageLRU(t, poolPages, seed)
			})
		}
	}
}

func blobReadsMatchPageLRU(t *testing.T, poolPages int, seed int64) {
	bp := NewBufferPool(poolPages)
	m := newPoolModel(bp)
	rng := rand.New(rand.NewSource(seed))
	stores := [2]*Store{NewStoreShared(bp), NewStoreShared(bp)}
	var refs [2][]BlobRef
	for s, st := range stores {
		// One blob of 130 pages, then a mix of packed sub-page blobs, short
		// extents and long ones.
		refs[s] = append(refs[s], st.AppendBlob(make([]byte, 130*PageSize-blobHeaderSize)))
		for i := 0; i < 30; i++ {
			var n int
			switch rng.Intn(3) {
			case 0:
				n = rng.Intn(PageSize / 3)
			case 1:
				n = rng.Intn(8 * PageSize)
			default:
				n = rng.Intn(130*PageSize - blobHeaderSize)
			}
			refs[s] = append(refs[s], st.AppendBlob(make([]byte, n)))
		}
	}
	if len(bp.shards) != map[int]int{16: 1, 64: 4, 100: 6}[poolPages] {
		t.Fatalf("a %d-page pool has %d shards", poolPages, len(bp.shards))
	}

	// owner is the blob of store s holding byte 0 of page p: every page's
	// first byte belongs to the blob that starts there or to the extent
	// running through it.
	owner := func(s int, p int64) BlobRef {
		for _, r := range refs[s] {
			if start := r.Page*PageSize + int64(r.Off); start <= p*PageSize && p*PageSize < start+int64(r.Bytes) {
				return r
			}
		}
		t.Fatalf("no blob of store %d holds page %d", s, p)
		return BlobRef{}
	}
	// read reads ref from store s, expecting wantErr, and holds its charges
	// to the reference's; it reports whether the reference displaced a page.
	var accts, want [2]Stats
	read := func(step, s int, ref BlobRef, wantErr error) (displaced bool) {
		got, exp := accts[s], want[s]
		if _, err := Whole(stores[s].ReadBlob(ref, &accts[s])); !errors.Is(err, wantErr) {
			t.Fatalf("step %d: read %+v of store %d: err = %v, want %v", step, ref, s, err, wantErr)
		}
		displaced = m.read(stores[s], ref, &want[s])
		delta := func(a, b Stats) [3]int64 {
			return [3]int64{b.BufferHits - a.BufferHits, b.SequentialReads - a.SequentialReads, b.RandomReads - a.RandomReads}
		}
		if g, e := delta(got, accts[s]), delta(exp, want[s]); g != e {
			t.Fatalf("step %d: read %+v of store %d: hits/seq/random %v, page-at-a-time LRU %v", step, ref, s, g, e)
		}
		return displaced
	}
	gen := bp.Generation()
	for step := 0; step < 400; step++ {
		s := rng.Intn(2)
		st := stores[s]
		var op string
		moved := true // every explicit drop moves the generation
		switch r := rng.Intn(100); {
		case r < 75:
			op = "ReadBlob"
			// Half the reads go to four hot blobs, so that some find their
			// pages resident.
			i := 1 + rng.Intn(4)
			if rng.Intn(2) == 0 {
				i = rng.Intn(len(refs[s]))
			}
			moved = read(step, s, refs[s][i], nil)
		case r < 80:
			op = "CorruptPage"
			p := rng.Int63n(st.NumPages())
			if err := st.CorruptPage(p, 0); err != nil {
				t.Fatal(err)
			}
			m.evict(st, p)
			// The damaged blob fails its check, charged like any read.
			read(step, s, owner(s, p), ErrCorruptBlob)
			if err := st.CorruptPage(p, 0); err != nil { // and back
				t.Fatal(err)
			}
			m.evict(st, p)
		case r < 88:
			op = "Evict"
			p := rng.Int63n(st.NumPages())
			st.uncache(p)
			m.evict(st, p)
		case r < 93:
			op = "EvictStore"
			bp.evictStore(st.id)
			m.evictStore(st)
		case r < 97:
			op = "DropCache"
			st.DropCache()
			m.evictStore(st)
		default:
			op = "Clear"
			bp.Clear()
			m.evictStore(nil)
		}
		if g := bp.Generation(); (g != gen) != moved {
			t.Fatalf("step %d (%s): generation moved = %v, reference says %v", step, op, g != gen, moved)
		}
		gen = bp.Generation()
		exp := m.poolStats()
		if n := bp.Len(); n != exp.Resident {
			t.Fatalf("step %d (%s): Len = %d, reference holds %d", step, op, n, exp.Resident)
		}
		if got := bp.Stats(); got != exp {
			t.Fatalf("step %d (%s): PoolStats %+v, reference %+v", step, op, got, exp)
		}
	}
	if s := bp.Stats(); s.Hits == 0 || s.Evictions == 0 {
		t.Fatalf("the run exercised no hits or no displacements: %+v", s)
	}
}
