// Package pagefile simulates the disk subsystem of the paper's evaluation:
// a paged store with a buffer pool and an I/O accountant that distinguishes
// random from sequential page accesses.
//
// The paper measures index performance as the number of random I/Os, with
// sequential accesses normalized to 1/20 of a random access (§6, citing
// Corral et al.). Reproducing the experiments therefore needs a disk *model*
// rather than a physical disk: Store places serialized blobs on consecutive
// 4 KiB pages, and a Stats accountant counts a page read as sequential
// exactly when it is the physical successor of the previously read page of
// the same access stream.
//
// # Integrity
//
// The promise: no answer is computed from a byte that this read did not
// verify. A reader verifies what it interprets, when it first interprets it,
// at the granularity of a page — the way a disk checks a sector — so a query
// that decodes a few pages of a long extent does not checksum the rest.
//
// Every blob carries an 8-byte header: its payload length and the payload's
// CRC-32C (Castagnoli, the polynomial with SSE4.2 / ARMv8 instructions —
// hash/crc32 uses them, and slicing-8 elsewhere). ReadBlob checks the length
// on every call, pool hit or miss, and a blob that fits in one page — run
// directories, most partitions and cells — is verified whole against its
// header CRC right there. A blob that spans pages is not: the store keeps,
// beside its page table and outside the page bytes, the CRC-32C of the
// blob's bytes on each page, and ReadBlob returns a Blob whose Verify checks
// the pages under a byte range before the caller interprets them, each page
// once per read. Whole verifies every page, for readers that decode a blob
// in full. A multi-page blob starts at offset 0 of a fresh extent, so a page
// holds at most one multi-page fragment, and the sub-page blobs packed after
// it on its tail page lie outside the page's sum.
//
// Any single-bit flip inside a blob's bytes, header included, therefore
// surfaces as ErrCorruptBlob from the read or verification that covers it,
// while damage to page slack, to a neighbouring blob packed on the same page,
// or to a page of the blob that no verification covers leaves the reader
// unaffected. Nothing is verified once and trusted after: the next read
// verifies again.
//
// The checksum is not moved to the moment a page enters the pool. On the
// paper's setup — an index behind a pool of about 1 % of it — nearly every
// access misses (98.8 % on the benchmark's graph-point), so verifying at
// admission would save almost none of the work, and it would hand a hit
// bytes that another query verified rather than the bytes this read sees.
//
// Inside the checksum every index blob begins with one layout version byte
// (Encoder.Format writes it, Decoder.Format checks it). There is one on-page
// layout, owned by the code that writes it, and the byte is a second
// fault-detecting value, not a dispatch: a reader that finds any other value
// fails instead of mis-reading every field. A layout change replaces the
// layout and bumps the byte; the store lives in process memory and is
// rebuilt at Open, so no blob of an earlier layout exists to be decoded.
//
// # Views
//
// A blob occupies one extent: pages that are consecutive on the simulated
// disk and contiguous in memory. ReadBlob returns a Blob, a view of that
// memory — no copy — after passing each page through the buffer pool, so
// the I/O counts are those of a page-at-a-time read. The view aliases the store:
// callers must not modify it, and it stays valid and unchanged for the
// life of the store, because a store only ever appends and blobs never
// overlap. The buffer pool consequently tracks which pages are resident,
// not their bytes; DropCache and evictions never invalidate a view.
// CorruptPage is the one writer of published bytes: it exists for
// failure-injection tests, a view taken earlier sees the damage, and it
// must not run while another goroutine reads the same page.
//
// # Concurrency model
//
// The layer is built for serving-style workloads where many read-only
// queries run in parallel over one or more stores:
//
//   - Stats is a per-stream accountant. Each query owns one (it models the
//     query's own disk arm, so sequential detection stays exact under
//     concurrency) and threads it through ReadBlob. A Stats must not be
//     shared between goroutines.
//   - Store keeps cumulative totals in atomic counters (Counters), charged
//     once per ReadBlob alongside the caller's accountant, so per-query
//     deltas sum exactly to the store totals.
//   - BufferPool is a page-sharded LRU safe for concurrent use: pages hash
//     onto independently latched shards, each a strict LRU over its own
//     pages. A blob read groups its pages by shard, a window of pages at a
//     time, and takes each shard's latch once per window, touching that
//     shard's pages in ascending order — the order a page-at-a-time read
//     would, so every hit, miss and eviction is the same. A page finds its
//     frame by index: its store keeps a page → frame table, whose entries
//     are read and written only under the latch of the page's shard. The
//     hit/miss/eviction counters are atomic and charged once per blob.
//     One pool can be shared by several stores (frames carry the store's
//     identity), giving all readers of one dataset a common page budget.
//     Its Generation stands still exactly while no page leaves it, which
//     lets a reader keep what it decoded from resident pages and no more.
//
// Writes (AppendBlob) happen during index construction, before queries
// start; they are serialized against each other by the store's internal
// lock, and a ReadBlob takes one snapshot of the page table under it, but
// they are not designed for concurrent bulk loading.
package pagefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"streach/internal/visit"
)

// PageSize is the size of one disk page in bytes (Table 3: 4 KiB pages).
const PageSize = 4096

// SeqCostRatio is how many sequential accesses cost as much as one random
// access (§6).
const SeqCostRatio = 20

// ErrCorruptBlob is returned when a blob fails its integrity check on read.
var ErrCorruptBlob = errors.New("pagefile: corrupt blob")

// Stats accumulates I/O counts for one access stream (typically one query).
// The zero value is ready to use. A Stats is not safe for concurrent use;
// concurrent queries each own one and their deltas sum to Store.Counters.
type Stats struct {
	RandomReads     int64
	SequentialReads int64
	PagesWritten    int64
	BufferHits      int64
	// PagesVerified counts the pages whose checksum this stream checked: one
	// for each single-page blob read, one for each page of a longer blob a
	// Verify covered. The store keeps no total of it.
	PagesVerified int64

	lastPage int64 // physical id of the last page fetched from "disk"
	valid    bool  // whether lastPage is meaningful
}

// Normalized returns the paper's headline metric: random reads plus
// sequential reads scaled by 1/SeqCostRatio.
func (s Stats) Normalized() float64 {
	return float64(s.RandomReads) + float64(s.SequentialReads)/SeqCostRatio
}

// Reset zeroes all counters, starting a new measurement window.
func (s *Stats) Reset() { *s = Stats{} }

// Position returns the physical page just past the last page this stream
// fetched from disk; ok is false before the first fetch. Pool hits do not
// move the position — readers use it to decide whether scanning through a
// small gap beats seeking (sequential read-through).
func (s *Stats) Position() (page int64, ok bool) { return s.lastPage + 1, s.valid }

// ForgetPosition marks the stream's head position unknown, as after a
// fetch from another store: the next fetch counts as random. A planner that
// moves one stream from store to store calls it at each move.
func (s *Stats) ForgetPosition() { s.valid = false }

// Add accumulates d into s, ignoring d's stream position.
func (s *Stats) Add(d Stats) {
	s.RandomReads += d.RandomReads
	s.SequentialReads += d.SequentialReads
	s.PagesWritten += d.PagesWritten
	s.BufferHits += d.BufferHits
	s.PagesVerified += d.PagesVerified
}

// sequential reports whether fetching page would continue this stream's
// sequential run, and records the fetch. Re-fetching the page under the
// head counts as sequential too: blobs can share a page (sub-page
// packing), and reading the neighbour of the blob just read costs no seek.
func (s *Stats) sequential(page int64) bool {
	seq := s.valid && (page == s.lastPage+1 || page == s.lastPage)
	if seq {
		s.SequentialReads++
	} else {
		s.RandomReads++
	}
	s.lastPage = page
	s.valid = true
	return seq
}

// storeIDs hands every store a process-unique identity for shared-pool keys.
var storeIDs atomic.Uint64

// Store is an append-only simulated disk holding fixed-size pages. Blobs
// (serialized index nodes, grid cells, partitions …) are written onto runs
// of consecutive pages; reading a blob fetches its pages through the buffer
// pool and charges both the caller's per-stream Stats and the store's
// atomic totals. Reads are safe for concurrent use.
type Store struct {
	id     uint64
	pool   *BufferPool
	shared bool // pool is shared with other stores; DropCache evicts only our pages

	mu       sync.RWMutex
	pages    [][]byte      // page table: len PageSize each, cap to the end of the page's extent
	sums     []uint32      // by page: CRC-32C of the multi-page blob's bytes on it, else 0
	frames   []*frameChunk // residency, by page (see frameChunk); covers pages when pool is set
	spare    [][]byte      // pages allocExtent obtained but has not handed out yet
	tailUsed int           // bytes used in the final page (blob packing)

	randomReads     atomic.Int64
	sequentialReads atomic.Int64
	bufferHits      atomic.Int64
	pagesWritten    atomic.Int64
}

// NewStore returns an empty store. Its reads go through pool, a buffer pool
// shared with other stores (the page budget is common), when pool is
// non-nil, and otherwise through a private pool of poolPages pages;
// poolPages ≤ 0 disables caching entirely.
func NewStore(pool *BufferPool, poolPages int) *Store {
	st := &Store{id: storeIDs.Add(1), pool: pool, shared: pool != nil}
	if pool == nil && poolPages > 0 {
		st.pool = NewBufferPool(poolPages)
	}
	return st
}

// Counters returns a snapshot of the store's cumulative I/O totals. The
// snapshot carries no stream position; per-query deltas (the Stats threaded
// through ReadBlob) sum exactly to consecutive Counters differences.
func (st *Store) Counters() Stats {
	return Stats{
		RandomReads:     st.randomReads.Load(),
		SequentialReads: st.sequentialReads.Load(),
		BufferHits:      st.bufferHits.Load(),
		PagesWritten:    st.pagesWritten.Load(),
	}
}

// ResetCounters zeroes the cumulative totals, starting a new measurement
// window. In-flight reads may straddle the reset.
func (st *Store) ResetCounters() {
	st.randomReads.Store(0)
	st.sequentialReads.Store(0)
	st.bufferHits.Store(0)
	st.pagesWritten.Store(0)
}

// Pool exposes the store's buffer pool (nil when caching is disabled).
func (st *Store) Pool() *BufferPool { return st.pool }

// NumPages returns the number of pages written so far.
func (st *Store) NumPages() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return int64(len(st.pages))
}

// SizeBytes returns the total on-disk size.
func (st *Store) SizeBytes() int64 { return st.NumPages() * PageSize }

// DropCache evicts this store's pages from the buffer pool (e.g. between
// measured queries) without touching the I/O counters. Pages of other
// stores sharing the pool are left resident.
func (st *Store) DropCache() {
	if st.pool == nil {
		return
	}
	if st.shared {
		st.pool.evictStore(st.id)
		return
	}
	st.pool.Clear()
}

// framesPerChunk is how many pages one chunk of a store's residency table
// covers. The table grows by whole chunks, so an entry never moves while a
// frame points at it.
const framesPerChunk = 1024

// frameChunk holds, for each of framesPerChunk consecutive pages of a
// store, one more than the index of the page's frame in its pool shard, or
// 0 while the page is not resident. An entry is read and written only under
// the latch of its page's shard.
type frameChunk [framesPerChunk]int32

// frameOf returns the residency entry of page p in a snapshot of the table.
func frameOf(frames []*frameChunk, p int64) *int32 {
	return &frames[p/framesPerChunk][p%framesPerChunk]
}

// uncache drops page p from the buffer pool if it is resident.
func (st *Store) uncache(p int64) {
	if st.pool == nil {
		return
	}
	st.mu.RLock()
	slot := frameOf(st.frames, p)
	st.mu.RUnlock()
	st.pool.evict(st.id, p, slot)
}

// BlobRef locates a blob on the store.
type BlobRef struct {
	Page  int64 // first page
	Off   int32 // byte offset of the blob within its first page
	Bytes int32 // blob length in bytes (header included)
}

// Null reports whether the reference does not point at any blob.
func (r BlobRef) Null() bool { return r.Bytes == 0 && r.Page == 0 }

// blobHeader is a small per-blob integrity header: payload length plus the
// payload's CRC-32C, letting ReadBlob detect truncated or corrupted pages.
const blobHeaderSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// extentGrain is the unit, in pages, in which page memory is obtained. The
// Go heap hands out objects above 32 KiB in 8 KiB units, so an extent of an
// odd number of pages allocated on its own would cost one page more than it
// holds: 0.7–1.8 % of the benchmark's ReachGraph indexes, which are nine
// tenths of the heap the benchmark measures.
const extentGrain = 2

// allocExtent returns n zeroed pages contiguous in memory. Memory comes in
// whole grains; a page left over is kept and becomes a later one-page
// extent, so no arena has a tail that is never used. The caller holds mu.
func (st *Store) allocExtent(n int) []byte {
	if k := len(st.spare); n == 1 && k > 0 {
		page := st.spare[k-1]
		st.spare = st.spare[:k-1]
		return page
	}
	size := n * PageSize
	arena := make([]byte, (n+extentGrain-1)/extentGrain*extentGrain*PageSize)
	if len(arena) > size {
		st.spare = append(st.spare, arena[size:])
	}
	return arena[:size:size]
}

// AppendBlob writes data onto the store and returns its reference. Blobs
// are packed: one that fits the free tail of the last page is placed
// there (page-granular footprints would otherwise swallow the codec's
// byte savings — a 200-byte posting must not cost 4 KiB); larger blobs
// start on a fresh page and occupy one extent of consecutive pages, and
// one that spans several has the sum of each of its pages recorded (see
// Blob). An empty blob is legal.
func (st *Store) AppendBlob(data []byte) BlobRef {
	size := blobHeaderSize + len(data)
	sum := crc32.Checksum(data, castagnoli)

	st.mu.Lock()
	defer st.mu.Unlock()
	ref := BlobRef{Page: int64(len(st.pages)) - 1, Off: int32(st.tailUsed), Bytes: int32(size)}
	if len(st.pages) == 0 || size > PageSize-st.tailUsed {
		n := (size + PageSize - 1) / PageSize
		ref.Page, ref.Off = int64(len(st.pages)), 0
		extent := st.allocExtent(n)
		for off := 0; off < len(extent); off += PageSize {
			st.pages = append(st.pages, extent[off:off+PageSize:len(extent)])
			st.sums = append(st.sums, 0)
		}
		for st.pool != nil && len(st.frames)*framesPerChunk < len(st.pages) {
			st.frames = append(st.frames, new(frameChunk))
		}
		st.pagesWritten.Add(int64(n))
	}
	end := int(ref.Off) + size
	dst := st.pages[ref.Page][ref.Off:end]
	binary.LittleEndian.PutUint32(dst[0:4], uint32(len(data)))
	binary.LittleEndian.PutUint32(dst[4:8], sum)
	copy(dst[blobHeaderSize:], data)
	if size > PageSize {
		buf := st.pages[ref.Page][:size]
		for k := 0; k*PageSize < size; k++ {
			st.sums[ref.Page+int64(k)] = crc32.Checksum(buf[k*PageSize:min((k+1)*PageSize, size)], castagnoli)
		}
	}
	st.tailUsed = (end-1)%PageSize + 1
	return ref
}

// ReadBlob fetches the blob at ref, charging acct (and the store's atomic
// totals) for pages that miss the buffer pool. acct may be nil, in which
// case sequential runs are still detected within this one blob but not
// across calls. The length is checked on every call, and a blob within one
// page is verified whole; a longer one is verified page by page through the
// returned Blob (see the package comment), whose bytes are a view of the
// store's memory and must not be modified.
func (st *Store) ReadBlob(ref BlobRef, acct *Stats) (Blob, error) {
	if ref.Bytes < blobHeaderSize {
		return Blob{}, fmt.Errorf("%w: header too short (%d bytes)", ErrCorruptBlob, ref.Bytes)
	}
	if ref.Off < 0 || ref.Off >= PageSize {
		return Blob{}, fmt.Errorf("pagefile: blob offset %d outside page", ref.Off)
	}
	// stream is acct, or a Stats of this one read; acct alone goes into the
	// Blob, so that own does not escape.
	stream := acct
	var own Stats
	if stream == nil {
		stream = &own
	}
	end := int(ref.Off) + int(ref.Bytes)
	numPages := int64(end+PageSize-1) / PageSize
	if numPages > 1 && ref.Off != 0 {
		return Blob{}, fmt.Errorf("pagefile: blob of %d pages at offset %d, not at a page start", numPages, ref.Off)
	}
	st.mu.RLock()
	pages, frames, sums := st.pages, st.frames, st.sums // append-only: the entries of a snapshot never move
	st.mu.RUnlock()
	if ref.Page < 0 || ref.Page > int64(len(pages))-numPages {
		return Blob{}, fmt.Errorf("pagefile: blob [%d, %d) outside store of %d pages",
			ref.Page, ref.Page+numPages, len(pages))
	}
	first := pages[ref.Page]
	if end > cap(first) {
		return Blob{}, fmt.Errorf("pagefile: blob [%d, %d) is not within one extent", ref.Page, ref.Page+numPages)
	}
	// The pages pass through the pool a window at a time; the misses are
	// then classified in page order, which pool hits do not interrupt.
	var hits, seq, random, evicted int64
	var hit [window]bool
	for p, last := ref.Page, ref.Page+numPages; p < last; p += window {
		run := hit[:min(last-p, window)]
		if st.pool != nil {
			evicted += st.pool.access(st.id, frames, p, run)
		}
		for i, h := range run {
			switch {
			case h:
				hits++
			case stream.sequential(p + int64(i)):
				seq++
			default:
				random++
			}
		}
	}
	stream.BufferHits += hits
	addNonZero(&st.bufferHits, hits)
	addNonZero(&st.sequentialReads, seq)
	addNonZero(&st.randomReads, random)
	if st.pool != nil {
		st.pool.charge(hits, seq+random, evicted)
	}

	buf := first[ref.Off:end]
	if n := binary.LittleEndian.Uint32(buf[0:4]); int64(n) != int64(ref.Bytes)-blobHeaderSize {
		return Blob{}, fmt.Errorf("%w: length mismatch (header %d, ref %d)", ErrCorruptBlob, n, ref.Bytes-blobHeaderSize)
	}
	if numPages > 1 {
		return Blob{buf: buf, sums: sums[ref.Page : ref.Page+numPages], page: ref.Page, acct: acct}, nil
	}
	stream.PagesVerified++
	if crc32.Checksum(buf[blobHeaderSize:], castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
		return Blob{}, fmt.Errorf("%w: checksum mismatch", ErrCorruptBlob)
	}
	return Blob{buf: buf}, nil
}

// Blob is one read of a blob: a view of its bytes in the store, verified
// whole when they lie on one page and page by page, on demand, when they
// span several. It is a value; keeping it allocates nothing, and its
// methods take it by pointer so that a check does not copy it.
type Blob struct {
	buf  []byte   // header and payload
	sums []uint32 // the CRC-32C of buf's bytes on each of its pages; nil when buf was verified whole
	page int64    // the store page buf starts on
	acct *Stats   // charged for the pages Verify checks; may be nil
}

// Bytes returns the payload. Only the bytes a Verify has covered, or all of
// them for a blob within one page, are verified.
func (b *Blob) Bytes() []byte { return b.buf[blobHeaderSize:] }

// Verify checks the pages that hold payload bytes [lo, hi) against their
// sums. seen, when not nil, is the reader's set of store pages verified in
// this read, sized to the store's page count: pages in it are skipped and
// pages that pass are added, so each page is checked once however many
// ranges cover it. A blob within one page was verified by ReadBlob and
// costs nothing here.
func (b *Blob) Verify(lo, hi int, seen *visit.Set) error {
	if b.sums == nil {
		return nil
	}
	return b.verify(lo, hi, seen)
}

func (b *Blob) verify(lo, hi int, seen *visit.Set) error {
	lo, hi = max(lo, 0)+blobHeaderSize, min(hi+blobHeaderSize, len(b.buf))
	if lo >= hi {
		return nil
	}
	for k := lo / PageSize; k*PageSize < hi; k++ {
		p := int(b.page) + k
		if seen != nil && seen.Has(p) {
			continue
		}
		if crc32.Checksum(b.buf[k*PageSize:min((k+1)*PageSize, len(b.buf))], castagnoli) != b.sums[k] {
			return fmt.Errorf("%w: checksum mismatch on page %d of %d", ErrCorruptBlob, k, len(b.sums))
		}
		if seen != nil {
			seen.Visit(p)
		}
		if b.acct != nil {
			b.acct.PagesVerified++
		}
	}
	return nil
}

// Whole verifies every page of a blob ReadBlob returned and gives its
// payload: what a reader that decodes the whole blob calls, as in
// Whole(st.ReadBlob(ref, acct)).
func Whole(b Blob, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	if err := b.Verify(0, len(b.buf), nil); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// CorruptPage flips a byte of page p. It exists for failure-injection tests
// and must not race with concurrent reads of the same page.
func (st *Store) CorruptPage(p int64, offset int) error {
	if offset < 0 {
		return fmt.Errorf("pagefile: negative page offset %d", offset)
	}
	st.mu.Lock()
	if p < 0 || p >= int64(len(st.pages)) {
		st.mu.Unlock()
		return fmt.Errorf("pagefile: no page %d", p)
	}
	st.pages[p][offset%PageSize] ^= 0xFF
	st.mu.Unlock()
	// Drop the page from the pool, so the next read goes to disk for it.
	st.uncache(p)
	return nil
}

// addNonZero adds d to c unless it is 0: a counter both cores write is
// written only when it changes.
func addNonZero(c *atomic.Int64, d int64) {
	if d != 0 {
		c.Add(d)
	}
}

// PoolStats is a snapshot of a buffer pool's global atomic counters.
type PoolStats struct {
	// Hits and Misses count page accesses by outcome.
	Hits, Misses int64
	// Evictions counts pages displaced by the capacity limit (pages dropped
	// by CorruptPage, DropCache or Clear are not counted).
	Evictions int64
	// Resident is the number of cached pages; Capacity the page budget.
	Resident int
	Capacity int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any access.
func (p PoolStats) HitRate() float64 {
	if p.Hits+p.Misses == 0 {
		return 0
	}
	return float64(p.Hits) / float64(p.Hits+p.Misses)
}

// BufferPool is a fixed-capacity LRU page cache, safe for concurrent use.
// It records which pages are resident, not their bytes: the simulated disk
// is itself in memory, and ReadBlob serves views of it. Pages hash onto
// independently latched shards (segmented LRU: recency is tracked per
// shard, the capacity bound is global) and the counters are atomic, so
// concurrent readers never serialize behind a pool-wide lock.
type BufferPool struct {
	shards []poolShard

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	generation atomic.Uint64 // see Generation
	capacity   int
}

// poolShard is a strict LRU over the pages that hash onto it. Its frames
// form a dense array, one per resident page, grown as pages become resident
// and linked from most to least recently used by index.
type poolShard struct {
	mu         sync.Mutex
	capacity   int
	frames     []frame
	head, tail int32 // most and least recently used frame, noFrame when empty
}

// noFrame ends an LRU list.
const noFrame = -1

// frame is one resident page: the residency entry of its store that points
// back at it, that store's identity, and its LRU neighbours.
type frame struct {
	slot       *int32
	store      uint64
	prev, next int32
}

// maxPoolShards bounds the latch count; minShardPages keeps every shard a
// meaningful LRU — small pools use fewer (down to one) shards rather than
// degenerating into a direct-mapped cache, so the pool-size ablation still
// measures LRU behavior. The global page budget is exact in all cases.
const (
	maxPoolShards = 16
	minShardPages = 16
)

// window is how many pages of a blob pass through the pool in one round:
// a round's bookkeeping is stack arrays of this length, so a blob longer
// than the window — partition extents reach ≈ 350 pages — takes several
// rounds, each latching a shard at most once.
const window = 128

// A round's page indices and per-shard counts are uint8s.
const _ uint8 = window

// NewBufferPool returns a pool holding at most capacity pages in total.
func NewBufferPool(capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	numShards := capacity / minShardPages
	if numShards > maxPoolShards {
		numShards = maxPoolShards
	}
	if numShards < 1 {
		numShards = 1
	}
	bp := &BufferPool{shards: make([]poolShard, numShards), capacity: capacity}
	per := capacity / numShards // exact: numShards ≤ capacity
	extra := capacity % numShards
	for i := range bp.shards {
		c := per
		if i < extra {
			c++
		}
		bp.shards[i] = poolShard{capacity: c, head: noFrame, tail: noFrame}
	}
	return bp
}

// Capacity returns the pool's total page budget.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Generation changes whenever a page may have left the pool: displaced by
// the capacity limit, or dropped by CorruptPage, DropCache or Clear. A
// reader that sees the same generation twice knows every page it touched in
// between is still resident — what lets it keep state derived from resident
// pages and bound that state by the pool's capacity. A blob read that
// displaces pages moves it once, after its last page.
func (bp *BufferPool) Generation() uint64 { return bp.generation.Load() }

// shardOf maps page p of store onto its shard.
func (bp *BufferPool) shardOf(store uint64, p int64) int {
	h := uint64(p)*0x9E3779B97F4A7C15 ^ store*0xBF58476D1CE4E5B9
	return int(h % uint64(len(bp.shards)))
}

// Len returns the number of cached pages.
func (bp *BufferPool) Len() int {
	n := 0
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		n += len(sh.frames)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the pool's global counters.
func (bp *BufferPool) Stats() PoolStats {
	return PoolStats{
		Hits:      bp.hits.Load(),
		Misses:    bp.misses.Load(),
		Evictions: bp.evictions.Load(),
		Resident:  bp.Len(),
		Capacity:  bp.capacity,
	}
}

// access passes pages first, first+1, … of store through the pool, one per
// element of hit (at most window of them), frames being the store's
// residency table, and sets hit[i] when page first+i was resident. The pages
// are grouped by shard; each shard's latch is taken once and its pages
// touched in ascending order, which leaves every shard exactly as a
// page-at-a-time pass would. It returns how many pages were displaced and
// leaves the counters to charge.
func (bp *BufferPool) access(store uint64, frames []*frameChunk, first int64, hit []bool) (displaced int64) {
	var shard, order [window]uint8
	var start [maxPoolShards + 1]uint8 // counting sort: shard s's pages are order[start[s]:start[s+1]]
	for i := range hit {
		s := bp.shardOf(store, first+int64(i))
		shard[i] = uint8(s)
		start[s+1]++
	}
	for s := range bp.shards {
		start[s+1] += start[s]
	}
	next := start
	for i, s := range shard[:len(hit)] {
		order[next[s]] = uint8(i)
		next[s]++
	}
	for s := range bp.shards {
		run := order[start[s]:start[s+1]]
		if len(run) == 0 {
			continue
		}
		sh := &bp.shards[s]
		sh.mu.Lock()
		for _, i := range run {
			h, d := sh.touch(frameOf(frames, first+int64(i)), store)
			hit[i] = h
			if d {
				displaced++
			}
		}
		sh.mu.Unlock()
	}
	return displaced
}

// charge adds one blob's page accesses to the counters, and moves the
// generation when any of them displaced a page.
func (bp *BufferPool) charge(hits, misses, displaced int64) {
	addNonZero(&bp.hits, hits)
	addNonZero(&bp.misses, misses)
	if displaced != 0 {
		bp.evictions.Add(displaced)
		bp.generation.Add(1)
	}
}

// evict drops page p of store, whose residency entry is slot, if resident.
func (bp *BufferPool) evict(store uint64, p int64, slot *int32) {
	sh := &bp.shards[bp.shardOf(store, p)]
	sh.mu.Lock()
	if f := *slot; f != 0 {
		sh.remove(f - 1)
	}
	sh.mu.Unlock()
	bp.generation.Add(1)
}

// evictStore drops every cached page of store.
func (bp *BufferPool) evictStore(store uint64) {
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		// Downwards: the frame remove moves into a hole is one already kept.
		for f := int32(len(sh.frames)) - 1; f >= 0; f-- {
			if sh.frames[f].store == store {
				sh.remove(f)
			}
		}
		sh.mu.Unlock()
	}
	bp.generation.Add(1)
}

// Clear empties the pool.
func (bp *BufferPool) Clear() {
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			*f.slot = 0
		}
		sh.frames = nil
		sh.head, sh.tail = noFrame, noFrame
		sh.mu.Unlock()
	}
	bp.generation.Add(1)
}

// touch is one access, under the shard's latch, to the page whose residency
// entry is slot. A resident page becomes the most recently used; a missing
// one is made resident in a new frame while the shard has room, and
// otherwise in the frame of the least recently used page, which it displaces.
func (sh *poolShard) touch(slot *int32, store uint64) (hit, displaced bool) {
	if f := *slot; f != 0 {
		sh.moveToFront(f - 1)
		return true, false
	}
	i := sh.tail
	if len(sh.frames) < sh.capacity {
		i = int32(len(sh.frames))
		sh.frames = append(sh.frames, frame{})
	} else {
		*sh.frames[i].slot = 0
		sh.unlink(i)
		displaced = true
	}
	sh.frames[i] = frame{slot: slot, store: store}
	sh.pushFront(i)
	*slot = i + 1
	return false, displaced
}

// remove drops frame i. The last frame moves into its place, so the array
// stays dense; that frame's neighbours and residency entry follow it.
func (sh *poolShard) remove(i int32) {
	sh.unlink(i)
	*sh.frames[i].slot = 0
	last := int32(len(sh.frames)) - 1
	if i != last {
		m := sh.frames[last]
		sh.frames[i] = m
		*m.slot = i + 1
		if m.prev != noFrame {
			sh.frames[m.prev].next = i
		} else {
			sh.head = i
		}
		if m.next != noFrame {
			sh.frames[m.next].prev = i
		} else {
			sh.tail = i
		}
	}
	sh.frames[last] = frame{}
	sh.frames = sh.frames[:last]
}

func (sh *poolShard) pushFront(i int32) {
	f := &sh.frames[i]
	f.prev, f.next = noFrame, sh.head
	if sh.head != noFrame {
		sh.frames[sh.head].prev = i
	} else {
		sh.tail = i
	}
	sh.head = i
}

func (sh *poolShard) unlink(i int32) {
	f := &sh.frames[i]
	if f.prev != noFrame {
		sh.frames[f.prev].next = f.next
	} else {
		sh.head = f.next
	}
	if f.next != noFrame {
		sh.frames[f.next].prev = f.prev
	} else {
		sh.tail = f.prev
	}
}

func (sh *poolShard) moveToFront(i int32) {
	if sh.head == i {
		return
	}
	sh.unlink(i)
	sh.pushFront(i)
}
