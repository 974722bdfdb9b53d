package pagefile

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// readCase is one corner of the read path: extents of one page or of
// seventeen, read from a pool that holds them all (every page hits) or from
// one a quarter the size of a single pass, read round-robin (every page
// misses and displaces another: the steady-state miss/evict cycle).
type readCase struct {
	name                   string
	span, count, poolPages int
	hit                    bool
}

var readCases = []readCase{
	{"1page/hit", 1, 64, 256, true},
	{"1page/miss", 1, 64, 16, false},
	{"17page/hit", 17, 4, 256, true},
	{"17page/miss", 17, 4, 16, false},
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
	return f.st.ReadBlob(ref, acct)
}

// TestReadBlobDoesNotAllocate pins the mechanism: a blob read is a view of
// store memory, the pool reuses the node of the page it displaces, and a
// nil accountant costs no heap Stats.
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
	a, err := st.ReadBlob(ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.DropCache()
	b, err := st.ReadBlob(ref, nil)
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
	if _, err := st.ReadBlob(forged, nil); err == nil {
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
	if _, err := st.ReadBlob(ref, nil); err != nil {
		t.Fatalf("refused corruption damaged the page: %v", err)
	}
}

// TestConcurrentViewsOverSharedPool runs readers of the same extents, in
// two stores over one small shared pool, so that views are handed out while
// other goroutines recycle the pool nodes of the very pages they cover.
// Every read must verify, and the per-stream deltas must still sum exactly
// to each store's totals and to the pool's counters. Run under -race.
func TestConcurrentViewsOverSharedPool(t *testing.T) {
	pool := NewBufferPool(24) // one shard, a third of the pages written below
	type blob struct {
		ref  BlobRef
		want []byte
	}
	stores := make([]*Store, 2)
	blobs := make([][]blob, 2)
	rng := rand.New(rand.NewSource(11))
	for s := range stores {
		stores[s] = NewStoreShared(pool)
		for _, span := range []int{1, 17, 1, 1, 17, 1, 1, 1, 1, 1} {
			data := make([]byte, span*PageSize-blobHeaderSize-rng.Intn(PageSize/2))
			rng.Read(data)
			blobs[s] = append(blobs[s], blob{stores[s].AppendBlob(data), data})
		}
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
				got, err := stores[s].ReadBlob(b.ref, &deltas[w][s])
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
	if ps.Resident > ps.Capacity || ps.Evictions != ps.Misses-int64(ps.Resident) {
		t.Errorf("pool %+v: every miss beyond the resident pages must have evicted one", ps)
	}
}

var sinkBlob []byte

// BenchmarkReadBlob measures the blob read path at its four corners (see
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
