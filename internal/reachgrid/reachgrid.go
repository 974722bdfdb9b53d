// Package reachgrid implements the ReachGrid index of §4: a spatiotemporal
// grid over trajectory segments that supports reachability queries by a
// guided, incremental expansion of the contact network.
//
// Layout (§4.1). The time domain is partitioned into buckets of BucketTicks
// instants (the temporal grid T1…Tn); within each bucket a uniform spatial
// grid of CellSize-wide cells partitions the trajectory segments. A cell
// blob stores the full bucket segment of every object that has at least one
// sample inside the cell during the bucket, with positions in timestamp
// order. Blobs are appended bucket by bucket and, within a bucket, in cell
// order — cells of Ci precede cells of Cj for i < j, the placement rule the
// paper derives from early query termination. A per-bucket object directory
// (the paper's external hash table) maps each object to its cell at the
// bucket start so the query source can be located in O(1) page reads.
//
// Every blob begins with pagefile's layout version byte. Object postings are
// stored as deltas and positions under a linear extrapolation predictor
// (bits XOR prediction, uvarint): trajectory samples between waypoints are
// near-linear, so most samples collapse to a few bytes while reconstruction
// stays bit-exact. The decode reads a segment's residuals in one
// pagefile.Decoder.Uvarints run — about 93 % of them are one byte — into a
// scratch buffer of at most 2·BucketTicks words, then runs the predictor
// over that run; a record repeated in a later cell is stepped over by
// SkipVarints, which counts terminator bytes a word at a time. Laziness
// would not pay: a query reads ≈ 85 % of the samples it decodes.
//
// Query processing (§4.2, Algorithm 1). The seed set starts as {source}.
// Sweeping the query interval bucket by bucket, the processor loads the
// cells containing the seeds, prefetches the "potential seed cells" — cells
// within dT of the minimum bounding rectangles of the seeds' remaining
// segments — and at every instant spreads the infection from the seeds
// over the buffered positions (stjoin.Joiner.Spread): only objects not yet
// infected are hashed, only infected ones start a distance test, and an
// object within dT of one becomes a seed and spreads in turn — the closure
// of "joins a seed's connected component" (the recursive restart at t′ of
// §4.2) at a cost that follows the infected frontier, not the buffer. The
// new seeds' cells are then admitted, and the instant is spread again only
// if that admission buffered a new segment: the spread is already a
// closure over the buffer, so over the same buffer it would find nothing.
// Mostly it finds the cells prefetched and the instant is settled after
// one round. The sweep stops as soon as the destination is infected. Cells
// are buffered for the duration of a bucket and discarded at its end.
//
// One bucket walk serves this sweep and the hop-counting sweep of
// semantics.go; they differ in the per-instant step it is handed. The steps
// stay two on purpose: the spread never looks at a pair of two infected
// objects, which the hop relaxation must, so the boolean step is
// materially cheaper than a relaxation with an unbounded budget. The query
// surface is those two plus the baseline: ReachFromCounted (multi-source
// point query, ReachCounted its single-source form),
// AppendSemProfileFrom (the profile every set and arrival answer is read
// off) and SPJReachCounted (spj.go).
//
// Everything a query buffers is pooled scratch (gridScratch) that later
// queries reuse wholesale: epoch-stamped seed, cell and segment tables
// (internal/visit), the join buffers, one position arena (a visit.Slab)
// that the buffered segments of the current bucket point into, the
// residual run of the segment being decoded, and the bucket's decoded
// object directory; a warm scratch allocates nothing. Reads are never
// skipped, only decodes: every directory lookup and cell load issues its
// ReadBlob — checksum, page charge and arm position as if nothing were
// remembered — and then decodes what the scratch lacks: a directory chunk
// once per bucket, an object's positions once per bucket however many of
// the loaded cells repeat them. An instant's spread starts from one pass
// over the buffered segments that lists their positions, their objects and
// which of them carry the item.
package reachgrid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"streach/internal/contact"
	"streach/internal/geo"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/stjoin"
	"streach/internal/trajectory"
	"streach/internal/visit"
)

// Params configures index construction.
type Params struct {
	// CellSize is the spatial resolution RS: the side length of a grid
	// cell, in the dataset's length unit. Defaults to 1/8 of the
	// environment width.
	CellSize float64
	// BucketTicks is the temporal resolution RT: the number of instants
	// per time bucket. Defaults to 20, the paper's empirical optimum.
	BucketTicks int
	// PoolPages sizes the store's private LRU buffer pool. Defaults to 64
	// pages; negative disables caching. Ignored when Pool is set.
	PoolPages int
	// Pool, when non-nil, is a buffer pool shared with other indexes over
	// the same dataset: all readers draw on one page budget.
	Pool *pagefile.BufferPool
}

func (p *Params) applyDefaults(env geo.Rect) {
	if p.CellSize <= 0 {
		p.CellSize = env.Width() / 8
	}
	if p.BucketTicks <= 0 {
		p.BucketTicks = 20
	}
	if p.PoolPages == 0 {
		p.PoolPages = 64
	}
}

// dirEntriesPerBlob is the number of object→cell entries per directory
// blob; 1000 int32 entries plus the blob header fit one 4 KiB page.
const dirEntriesPerBlob = 1000

// bucketMeta locates one time bucket's blobs on the store.
type bucketMeta struct {
	span     contact.Interval
	cellRefs []pagefile.BlobRef // indexed by cell ID; Null ⇒ empty cell
	dirRefs  []pagefile.BlobRef // object directory, chunks of dirEntriesPerBlob
}

// Index is a disk-resident ReachGrid. The in-memory part is only the blob
// catalogue (a few bytes per cell); all trajectory data lives on the
// simulated store and is charged to the per-query accountant when read.
// The catalogue is immutable after Build, so queries are safe to evaluate
// fully in parallel.
type Index struct {
	params     Params
	store      *pagefile.Store
	grid       geo.Grid
	numObjects int
	numTicks   int
	dT         float64
	buckets    []bucketMeta

	pool *visit.Pool[gridScratch] // per-query sweep scratch
}

// Build constructs the ReachGrid of dataset d.
func Build(d *trajectory.Dataset, params Params) (*Index, error) {
	params.applyDefaults(d.Env)
	if d.NumObjects() == 0 || d.NumTicks() == 0 {
		return nil, errors.New("reachgrid: empty dataset")
	}
	ix := &Index{
		params:     params,
		store:      pagefile.NewStoreWith(params.Pool, params.PoolPages),
		grid:       geo.NewGrid(d.Env, params.CellSize),
		numObjects: d.NumObjects(),
		numTicks:   d.NumTicks(),
		dT:         d.ContactDist,
		pool:       visit.NewPool(func() *gridScratch { return new(gridScratch) }),
	}
	numCells := ix.grid.NumCells()
	enc := pagefile.NewEncoder(4096)
	cellObjs := make([][]trajectory.ObjectID, numCells) // objects per cell, this bucket
	touched := make([]int, 0, 64)
	var seen visit.Set // cells of the current object's bucket segment

	for lo := trajectory.Tick(0); int(lo) < ix.numTicks; lo += trajectory.Tick(params.BucketTicks) {
		hi := lo + trajectory.Tick(params.BucketTicks) - 1
		if int(hi) >= ix.numTicks {
			hi = trajectory.Tick(ix.numTicks - 1)
		}
		meta := bucketMeta{
			span:     contact.Interval{Lo: lo, Hi: hi},
			cellRefs: make([]pagefile.BlobRef, numCells),
		}
		dir := make([]int32, ix.numObjects)

		for i := range d.Trajs {
			tr := &d.Trajs[i]
			o := tr.Object
			dir[o] = int32(ix.grid.CellID(tr.AtClamped(lo)))
			seg := tr.Slice(lo, hi)
			seen.Reset(numCells)
			for _, p := range seg.Pos {
				id := ix.grid.CellID(p)
				if seen.Visit(id) {
					if len(cellObjs[id]) == 0 {
						touched = append(touched, id)
					}
					cellObjs[id] = append(cellObjs[id], o)
				}
			}
		}
		// Directory chunks precede the bucket's cells: the guided sweep
		// always resolves directory entries first, so placing them at the
		// head of the bucket region lets a query flow from the lookup into
		// the ascending cell reads as one sequential run.
		for off := 0; off < len(dir); off += dirEntriesPerBlob {
			end := off + dirEntriesPerBlob
			if end > len(dir) {
				end = len(dir)
			}
			enc.Reset()
			enc.Format()
			enc.Int32SliceDelta(dir[off:end])
			meta.dirRefs = append(meta.dirRefs, ix.store.AppendBlob(enc.Bytes()))
		}
		// Write cells in ascending cell-ID order for a deterministic,
		// locality-friendly layout.
		slices.Sort(touched)
		for _, id := range touched {
			enc.Reset()
			enc.Format()
			enc.Uvarint(uint64(len(cellObjs[id])))
			prevObj := int64(0)
			for _, o := range cellObjs[id] { // object IDs ascend: small deltas
				seg := d.Trajs[o].Slice(lo, hi)
				enc.Varint(int64(o) - prevObj)
				prevObj = int64(o)
				enc.Uvarint(uint64(seg.Start))
				enc.Uvarint(uint64(len(seg.Pos)))
				encodePositions(enc, seg.Pos)
			}
			meta.cellRefs[id] = ix.store.AppendBlob(enc.Bytes())
			cellObjs[id] = cellObjs[id][:0]
		}
		touched = touched[:0]
		ix.buckets = append(ix.buckets, meta)
	}
	return ix, nil
}

// encodePositions writes a timestamp-ordered sample run under the linear
// extrapolation predictor: the first point is stored verbatim, the second
// against the first, and every later point against 2*prev - prev2 per
// coordinate. Between waypoints trajectories are linear, so the XOR
// residual is a few noise bits and the uvarint stays short; the decoder
// runs the same predictor over already-decoded values, making the round
// trip bit-exact for arbitrary inputs.
func encodePositions(enc *pagefile.Encoder, pos []geo.Point) {
	var px1, py1, px2, py2 float64
	for k, p := range pos {
		switch k {
		case 0:
			enc.Float64(p.X)
			enc.Float64(p.Y)
		case 1:
			enc.Float64Xor(px1, p.X)
			enc.Float64Xor(py1, p.Y)
		default:
			enc.Float64Xor(2*px1-px2, p.X)
			enc.Float64Xor(2*py1-py2, p.Y)
		}
		px2, py2 = px1, py1
		px1, py1 = p.X, p.Y
	}
}

// decodePositions reads len(pos) predictor-encoded samples into pos: the
// first verbatim, then the residuals of the rest in one Uvarints run into
// run (2·(len(pos)−1) long), each XOR'd with the prediction encodePositions
// made from the samples before it. After a decode error pos is unspecified.
func decodePositions(dec *pagefile.Decoder, pos []geo.Point, run []uint64) {
	if len(pos) == 0 {
		return
	}
	px1, py1 := dec.Float64(), dec.Float64()
	pos[0] = geo.Point{X: px1, Y: py1}
	if len(pos) == 1 {
		return
	}
	dec.Uvarints(run)
	if dec.Err() != nil {
		return
	}
	// k == 1: the prediction is the previous sample.
	px2, py2 := px1, py1
	px1 = math.Float64frombits(run[0] ^ math.Float64bits(px2))
	py1 = math.Float64frombits(run[1] ^ math.Float64bits(py2))
	pos[1] = geo.Point{X: px1, Y: py1}
	for k := 2; k < len(pos); k++ {
		r := run[2*k-2 : 2*k : 2*k]
		x := math.Float64frombits(r[0] ^ math.Float64bits(2*px1-px2))
		y := math.Float64frombits(r[1] ^ math.Float64bits(2*py1-py2))
		pos[k] = geo.Point{X: x, Y: y}
		px2, py2 = px1, py1
		px1, py1 = x, y
	}
}

// Store exposes the underlying simulated disk (for size and placement
// inspection).
func (ix *Index) Store() *pagefile.Store { return ix.store }

// Counters returns the store's cumulative I/O totals; per-query accountants
// passed to the query methods sum to consecutive Counters differences.
func (ix *Index) Counters() pagefile.Stats { return ix.store.Counters() }

// ResetCounters zeroes the cumulative totals.
func (ix *Index) ResetCounters() { ix.store.ResetCounters() }

// Grid returns the spatial grid geometry.
func (ix *Index) Grid() geo.Grid { return ix.grid }

// NumBuckets returns the number of temporal buckets.
func (ix *Index) NumBuckets() int { return len(ix.buckets) }

// bucketOf returns the bucket index containing tick t.
func (ix *Index) bucketOf(t trajectory.Tick) int { return int(t) / ix.params.BucketTicks }

// clampInterval intersects iv with the index's time domain.
func (ix *Index) clampInterval(iv contact.Interval) contact.Interval {
	return iv.Intersect(contact.Interval{Lo: 0, Hi: trajectory.Tick(ix.numTicks - 1)})
}

// validateQuery rejects object IDs outside the dataset.
func (ix *Index) validateQuery(q queries.Query) error {
	if int(q.Src) < 0 || int(q.Src) >= ix.numObjects {
		return fmt.Errorf("reachgrid: source %d outside [0, %d)", q.Src, ix.numObjects)
	}
	if int(q.Dst) < 0 || int(q.Dst) >= ix.numObjects {
		return fmt.Errorf("reachgrid: destination %d outside [0, %d)", q.Dst, ix.numObjects)
	}
	return nil
}

// ReachCounted answers the reachability query q : Src ⤳ Dst over
// q.Interval using the guided expansion of Algorithm 1, and returns the
// number of objects it infected (src included) before terminating — the
// frontier size the facade surfaces per query. Page reads are charged to acct (which may be nil) in
// addition to the store's cumulative counters; passing one accountant per
// query keeps evaluation safe to run fully in parallel. The context is
// observed inside the expansion loop (once per instant), so a cancelled
// query returns ctx.Err() promptly instead of sweeping on.
func (ix *Index) ReachCounted(ctx context.Context, q queries.Query, acct *pagefile.Stats) (bool, int, error) {
	if err := ix.validateQuery(q); err != nil {
		return false, 0, err
	}
	return ix.ReachFromCounted(ctx, []trajectory.ObjectID{q.Src}, q.Dst, q.Interval, acct)
}

// checkSeeds rejects seed IDs outside the dataset.
func (ix *Index) checkSeeds(seeds []trajectory.ObjectID) error {
	for _, s := range seeds {
		if int(s) < 0 || int(s) >= ix.numObjects {
			return fmt.Errorf("reachgrid: seed %d outside [0, %d)", s, ix.numObjects)
		}
	}
	return nil
}

// ReachFromCounted is the multi-source point query: can an item held by any
// of the seeds at the interval start reach dst by its end? It is the
// frontier entry point of the cross-segment planner — the reachable set of
// one time slab seeds the sweep of the next. Seeds must be valid object
// IDs; the expansion counter includes the seeds.
func (ix *Index) ReachFromCounted(ctx context.Context, seeds []trajectory.ObjectID, dst trajectory.ObjectID, iv contact.Interval, acct *pagefile.Stats) (bool, int, error) {
	if int(dst) < 0 || int(dst) >= ix.numObjects {
		return false, 0, fmt.Errorf("reachgrid: destination %d outside [0, %d)", dst, ix.numObjects)
	}
	iv = ix.clampInterval(iv)
	if iv.Len() == 0 {
		return false, 0, nil
	}
	if err := ix.checkSeeds(seeds); err != nil {
		return false, 0, err
	}
	if slices.Contains(seeds, dst) {
		return true, len(seeds), nil
	}
	reached := false
	expanded := len(seeds)
	err := ix.sweep(ctx, seeds, iv, acct, func(o trajectory.ObjectID) bool {
		expanded++
		if o == dst {
			reached = true
			return false
		}
		return true
	})
	return reached, expanded, err
}

// gridScratch is the pooled per-query working state of the sweep.
// Epoch-stamped arrays make per-bucket resets O(1); the joiner's cell
// table persists across queries.
type gridScratch struct {
	seeds   visit.Set             // infected objects (boolean sweep)
	reached []trajectory.ObjectID // carriers, in the order they were reached
	loaded  visit.Set             // cells buffered this bucket
	segAt   visit.Ticks           // object → index of its segment in segs
	segs    []trajectory.Segment  // segments buffered this bucket
	arena   visit.Slab[geo.Point] // backing array of the segments' positions
	run     visit.Slab[uint64]    // the residuals of the segment being decoded
	pts     []geo.Point
	ids     []trajectory.ObjectID
	hot     []int32 // indices into pts of the infected, then of the newly infected
	pending []int
	fresh   []trajectory.ObjectID
	joiner  *stjoin.Joiner

	// Directory chunks of bucket dirBucket decoded so far, and the object →
	// cell entries they held.
	dirBucket int
	dirDone   visit.Set
	dirCells  []int32

	// Semantic-sweep state (AppendSemProfileFrom): hop counts, arrivals and
	// the per-instant pair buffers of the relaxation. Untouched by the
	// boolean sweep, whose deferred list stays empty.
	hops         visit.Ticks
	arrTicks     visit.Ticks
	pairA, pairB []trajectory.ObjectID
	deferred     []queries.SeedState   // seeds activating after iv.Lo, by Start
	di           int                   // first deferred seed not yet activated
	activated    []trajectory.ObjectID // seeds activated this instant

	posPage int64 // disk page just past the last blob read; -1 unknown
	posCell int   // first cell of the current bucket at or past posPage

	own pagefile.Stats // the stream accountant of a query whose caller has none
}

// begin takes a scratch for one query; the caller returns it to ix.pool.
// Read-through needs a stream accountant even when the caller does not care
// about the counts, so a nil acct is replaced by the scratch's own.
func (ix *Index) begin(acct *pagefile.Stats) (*gridScratch, *pagefile.Stats) {
	sc := ix.pool.Get()
	sc.reset(ix)
	if acct == nil {
		sc.own = pagefile.Stats{}
		acct = &sc.own
	}
	return sc, acct
}

// reset empties the scratch. The joiner is built the first time it serves
// this index (env and dT are per-index, and so are pools).
func (sc *gridScratch) reset(ix *Index) {
	sc.seeds.Reset(ix.numObjects)
	sc.reached = sc.reached[:0]
	sc.deferred, sc.di = sc.deferred[:0], 0
	sc.posPage, sc.posCell = -1, 0
	sc.dirBucket = -1
	if sc.joiner == nil {
		sc.joiner = stjoin.NewJoiner(ix.grid.Env(), ix.dT)
	}
}

// resetBucket discards the previous bucket's buffered cells and segments.
// The disk position survives — it is physical, and the next bucket's blobs
// follow the current one's on disk.
func (sc *gridScratch) resetBucket(numObjects, numCells int) {
	sc.loaded.Reset(numCells)
	sc.segAt.Reset(numObjects)
	sc.segs = sc.segs[:0]
	sc.arena.Reset()
	sc.posCell = 0
}

// sweep runs Algorithm 1 from the given (valid) seed set, invoking onInfect
// for every object that becomes reachable from a seed (seeds excluded), in
// the order they are infected. onInfect returning false terminates the
// sweep early (the paper's termination on discovering the destination).
func (ix *Index) sweep(ctx context.Context, initial []trajectory.ObjectID, iv contact.Interval, acct *pagefile.Stats, onInfect func(trajectory.ObjectID) bool) error {
	sc, acct := ix.begin(acct)
	defer ix.pool.Put(sc)
	for _, s := range initial {
		if sc.seeds.Visit(int(s)) {
			sc.reached = append(sc.reached, s)
		}
	}
	return ix.walk(ctx, sc, iv, acct, func(t trajectory.Tick, grown bool) ([]trajectory.ObjectID, bool) {
		if !grown {
			return nil, false // settled: the spread is a closure of the buffer
		}
		fresh := ix.infectAt(sc, t)
		for i, o := range fresh {
			if !onInfect(o) {
				return fresh[:i+1], true
			}
		}
		return fresh, false
	})
}

// walk is the guided bucket walk of Algorithm 1. Per bucket it loads the
// cells of the carriers sc.reached (C_{S_i}) and prefetches the
// potential-seed cells N_i around their MBRs; per instant it lets the
// deferred seeds that are due join the carriers, then runs step to a
// fixpoint: the objects it returns are new carriers at t, their cells are
// admitted and the instant is stepped again, so chains through just-loaded
// cells resolve within their own tick (the recursive restart at t′ in
// §4.2). stop ends the walk once the step's objects are recorded. The
// context is observed once per instant.
//
// grown tells the step whether the buffer gained a segment since its last
// round at t; it is true on every instant's first round. Both steps return
// a closure over the buffered segments of t — every object the carriers
// reach there — so a round over an unchanged buffer finds nothing, and a
// step handed grown == false may answer so without looking. That is the
// common case: admission usually buffers no new segment, because the
// potential-seed prefetch already loaded the new carriers' cells. The
// admission itself still runs after every round that found objects, so
// every read and its charge stay where they are.
func (ix *Index) walk(ctx context.Context, sc *gridScratch, iv contact.Interval, acct *pagefile.Stats, step func(t trajectory.Tick, grown bool) (fresh []trajectory.ObjectID, stop bool)) error {
	prevBi := -1
	for bi := ix.bucketOf(iv.Lo); bi <= ix.bucketOf(iv.Hi) && bi < len(ix.buckets); bi++ {
		w := ix.buckets[bi].span.Intersect(iv)
		if w.Len() == 0 {
			continue
		}
		if prevBi >= 0 {
			ix.bridgeBuckets(prevBi, bi, sc, acct)
		}
		prevBi = bi
		sc.resetBucket(ix.numObjects, ix.grid.NumCells())
		if err := ix.admitSeeds(bi, sc, sc.reached, w.Lo, w.Hi, acct); err != nil {
			return err
		}
		for t := w.Lo; t <= w.Hi; t++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if activated := sc.activateDue(t); len(activated) > 0 {
				if err := ix.admitSeeds(bi, sc, activated, t, w.Hi, acct); err != nil {
					return err
				}
			}
			for grown := true; ; {
				fresh, stop := step(t, grown)
				sc.reached = append(sc.reached, fresh...)
				if stop {
					return nil
				}
				if len(fresh) == 0 {
					break
				}
				buffered := len(sc.segs)
				if err := ix.admitSeeds(bi, sc, fresh, t, w.Hi, acct); err != nil {
					return err
				}
				grown = len(sc.segs) > buffered
			}
		}
		// Cells buffered during Ti are discarded at the end of Ti.
	}
	return nil
}

// admitSeeds loads, for every object in objs, the cell containing it at the
// bucket start (via the object directory) and all cells within dT of the
// MBR of its segment over [cur, hi]. Loads happen in two sorted batches —
// first the directory cells of the whole batch, then the neighbourhood
// cells around their MBRs — so directory lookups never interleave with
// cell reads and contiguous cell runs stay sequential on disk.
func (ix *Index) admitSeeds(bi int, sc *gridScratch, objs []trajectory.ObjectID, cur, hi trajectory.Tick, acct *pagefile.Stats) error {
	sc.pending = sc.pending[:0]
	for _, o := range objs {
		if _, ok := sc.segAt.Get(int(o)); !ok {
			cell, err := ix.dirLookup(bi, o, sc, acct)
			if err != nil {
				return err
			}
			if cell < 0 || cell >= len(ix.buckets[bi].cellRefs) {
				return fmt.Errorf("reachgrid: directory of bucket %d names cell %d outside [0, %d)", bi, cell, len(ix.buckets[bi].cellRefs))
			}
			sc.pending = append(sc.pending, cell)
		}
	}
	if err := ix.loadCells(bi, sc, acct); err != nil {
		return err
	}
	sc.pending = sc.pending[:0]
	for _, o := range objs {
		i, ok := sc.segAt.Get(int(o))
		if !ok {
			// The directory pointed at a cell that does not contain the
			// object's segment; the layout guarantees this cannot happen.
			return fmt.Errorf("reachgrid: object %d missing from its directory cell in bucket %d", o, bi)
		}
		mbr := segMBR(sc.segs[i], cur, hi).Expand(ix.dT)
		sc.pending = ix.grid.CellsIntersecting(mbr, sc.pending)
	}
	return ix.loadCells(bi, sc, acct)
}

// readThroughPages is the break-even seek distance: scanning a gap of up
// to SeqCostRatio pages sequentially costs as much as the one random
// access a seek past it would (§6's 1:20 sequential:random cost model),
// and keeping the arm in its run lets the following reads stay sequential
// too — so gaps up to twice the break-even are still worth scanning.
const readThroughPages = 2 * pagefile.SeqCostRatio

// loadCells loads sc.pending in ascending cell order, reading *through*
// small on-disk gaps: when the next wanted blob starts fewer than
// readThroughPages past the sweep's current disk position, the unread
// cells in between (placed in cell order within the bucket) are loaded
// too, turning a seek into a cheaper sequential scan. Extra buffered cells
// never change the sweep's answer — the per-instant fixpoint makes the
// infection set independent of which additional cells are resident — they
// only trade random for sequential I/O. A cell named twice is dropped (by
// its second turn the arm is past it or the gap in front of it is
// buffered); one that is merely buffered already is not: whether the gap
// in front of it is read through depends on it.
func (ix *Index) loadCells(bi int, sc *gridScratch, acct *pagefile.Stats) error {
	slices.Sort(sc.pending)
	sc.pending = slices.Compact(sc.pending)
	refs := ix.buckets[bi].cellRefs
	for _, id := range sc.pending {
		if id >= sc.posCell && !refs[id].Null() && sc.posPage >= 0 &&
			refs[id].Page >= sc.posPage && refs[id].Page-sc.posPage <= readThroughPages {
			for g := sc.posCell; g < id; g++ {
				if err := ix.loadCell(bi, g, sc, acct); err != nil {
					return err
				}
			}
		}
		if err := ix.loadCell(bi, id, sc, acct); err != nil {
			return err
		}
	}
	return nil
}

// bridgeBuckets scans the disk arm across the trailing, unread cells of
// bucket prev when the next bucket's directory is close enough that the
// sequential scan beats the seek. The bytes are discarded — only the arm
// position matters — so none of them is verified beyond what the read
// itself checks (a cell within one page), and read errors in the bridged
// region are ignored: a query must not fail on pages it does not need.
func (ix *Index) bridgeBuckets(prev, next int, sc *gridScratch, acct *pagefile.Stats) {
	if sc.posPage < 0 || len(ix.buckets[next].dirRefs) == 0 {
		return
	}
	target := ix.buckets[next].dirRefs[0].Page
	if target < sc.posPage || target-sc.posPage > readThroughPages {
		return
	}
	refs := ix.buckets[prev].cellRefs
	for g := sc.posCell; g < len(refs); g++ {
		if refs[g].Null() || refs[g].Page < sc.posPage {
			continue
		}
		before, beforeOK := acct.Position()
		if _, err := ix.store.ReadBlob(refs[g], acct); err != nil {
			sc.posPage = -1 // arm position unknown after a failed read
			return
		}
		sc.advancePos(acct, before, beforeOK, g+1)
	}
}

// advancePos syncs the sweep's view of the disk arm with the accountant
// after a blob read, with (before, beforeOK) the accountant position
// snapshotted just before the read and nextCell the first cell of the
// current bucket at or beyond the blob. Only a read that actually moved
// the arm is adopted: a read served entirely by the buffer pool leaves
// the position where it was — crucially, an accountant threaded across
// the per-slab stores of a segmented engine may still carry another
// store's page position, which must not leak into this store's
// read-through decisions.
func (sc *gridScratch) advancePos(acct *pagefile.Stats, before int64, beforeOK bool, nextCell int) {
	after, ok := acct.Position()
	if !ok || (beforeOK && after == before) {
		return
	}
	sc.posPage = after
	sc.posCell = nextCell
}

// gather collects the buffered objects that have a sample at instant t
// into sc.pts and sc.ids, in buffering order. With carriers non-nil it also
// lists in sc.hot the indices into sc.pts of the objects in carriers; with
// nil it leaves sc.hot alone.
func (sc *gridScratch) gather(t trajectory.Tick, carriers *visit.Set) {
	pts, ids, hot := sc.pts[:0], sc.ids[:0], sc.hot
	for i := range sc.segs {
		seg := &sc.segs[i]
		k := int(t) - int(seg.Start)
		if k < 0 || k >= len(seg.Pos) {
			continue
		}
		if carriers != nil && carriers.Has(int(seg.Object)) {
			hot = append(hot, int32(len(pts)))
		}
		pts = append(pts, seg.Pos[k])
		ids = append(ids, seg.Object)
	}
	sc.pts, sc.ids, sc.hot = pts, ids, hot
}

// infectAt spreads the infection over the buffered positions of instant t:
// every object chained to a seed by hops of at most dT becomes a seed. It
// returns the new seeds in buffering order (valid until the next call).
func (ix *Index) infectAt(sc *gridScratch, t trajectory.Tick) []trajectory.ObjectID {
	sc.hot, sc.fresh = sc.hot[:0], sc.fresh[:0]
	sc.gather(t, &sc.seeds)
	seeds := len(sc.hot)
	sc.hot = sc.joiner.Spread(sc.pts, sc.hot)
	newly := sc.hot[seeds:] // in discovery order; callers count in buffering order
	slices.Sort(newly)
	for _, i := range newly {
		sc.seeds.Visit(int(sc.ids[i]))
		sc.fresh = append(sc.fresh, sc.ids[i])
	}
	return sc.fresh
}

// loadCell reads a cell blob (if present and not yet buffered) and registers
// its segments.
func (ix *Index) loadCell(bi, cell int, sc *gridScratch, acct *pagefile.Stats) error {
	if cell < 0 || cell >= len(ix.buckets[bi].cellRefs) {
		return fmt.Errorf("reachgrid: no cell %d in bucket %d", cell, bi)
	}
	if !sc.loaded.Visit(cell) {
		return nil
	}
	ref := ix.buckets[bi].cellRefs[cell]
	if ref.Null() {
		return nil
	}
	before, beforeOK := acct.Position()
	data, err := pagefile.Whole(ix.store.ReadBlob(ref, acct))
	if err != nil {
		return fmt.Errorf("reachgrid: cell %d of bucket %d: %w", cell, bi, err)
	}
	sc.advancePos(acct, before, beforeOK, cell+1)
	dec := pagefile.NewDecoder(data)
	dec.Format()
	n := int(dec.Uvarint())
	if dec.Err() == nil && (n < 0 || n > dec.Remaining()+1) {
		dec.Failf("reachgrid: implausible object count %d with %d bytes left", n, dec.Remaining())
	}
	prevObj := int64(0)
	for i := 0; i < n && dec.Err() == nil; i++ {
		prevObj += dec.Varint()
		o := trajectory.ObjectID(prevObj)
		start := trajectory.Tick(dec.Uvarint())
		cnt := int(dec.Uvarint())
		if dec.Err() != nil {
			break
		}
		if int(o) < 0 || int(o) >= ix.numObjects {
			dec.Failf("reachgrid: cell names object %d outside [0, %d)", o, ix.numObjects)
			break
		}
		// The shortest encoding of cnt samples, checked before arena space
		// is reserved: two raw float64s, then two uvarints a sample. A
		// segment has at most one sample per tick of its bucket.
		least := 16 * cnt
		if cnt > 1 {
			least = 16 + 2*(cnt-1)
		}
		if cnt < 0 || cnt > ix.buckets[bi].span.Len() || least > dec.Remaining() {
			dec.Failf("reachgrid: implausible sample count %d with %d bytes left", cnt, dec.Remaining())
			break
		}
		if _, dup := sc.segAt.Get(int(o)); dup {
			// The object was already decoded from another cell it spans:
			// step over its samples without running the predictor.
			if cnt > 0 {
				dec.Skip(16)
				dec.SkipVarints(2 * (cnt - 1))
			}
			continue
		}
		pos := sc.arena.Alloc(cnt)
		sc.run.Reset()
		decodePositions(dec, pos, sc.run.Alloc(2*max(cnt-1, 0)))
		sc.segAt.Set(int(o), int32(len(sc.segs)))
		sc.segs = append(sc.segs, trajectory.Segment{Object: o, Start: start, Pos: pos})
	}
	if err := dec.Err(); err != nil {
		return fmt.Errorf("reachgrid: cell %d of bucket %d: %w", cell, bi, err)
	}
	return nil
}

// dirLookup reads the object directory entry of o for bucket bi: the cell
// containing o at the bucket start (one page read, typically a buffer hit
// for subsequent seeds). The chunk is read, verified and charged on every
// lookup; only its decode is remembered: the first lookup of a bucket that
// lands in a chunk decodes all of it (a delta chain) into the scratch,
// later ones are answered by index.
func (ix *Index) dirLookup(bi int, o trajectory.ObjectID, sc *gridScratch, acct *pagefile.Stats) (int, error) {
	chunk := int(o) / dirEntriesPerBlob
	ref := ix.buckets[bi].dirRefs[chunk]
	before, beforeOK := acct.Position()
	data, err := pagefile.Whole(ix.store.ReadBlob(ref, acct))
	if err != nil {
		return 0, fmt.Errorf("reachgrid: directory chunk %d of bucket %d: %w", chunk, bi, err)
	}
	sc.advancePos(acct, before, beforeOK, 0) // chunks precede the cells: the run starts here
	if sc.dirBucket != bi {
		sc.dirBucket = bi
		sc.dirDone.Reset(len(ix.buckets[bi].dirRefs))
		if len(sc.dirCells) < ix.numObjects {
			sc.dirCells = make([]int32, ix.numObjects)
		}
	}
	if !sc.dirDone.Has(chunk) {
		base := chunk * dirEntriesPerBlob
		if err := decodeDirChunk(data, sc.dirCells[base:min(base+dirEntriesPerBlob, ix.numObjects)]); err != nil {
			return 0, fmt.Errorf("reachgrid: directory chunk %d of bucket %d: %w", chunk, bi, err)
		}
		sc.dirDone.Visit(chunk)
	}
	return int(sc.dirCells[o]), nil
}

// decodeDirChunk fills cells with the leading len(cells) entries of a
// directory chunk, which must hold at least that many.
func decodeDirChunk(data []byte, cells []int32) error {
	dec := pagefile.NewDecoder(data)
	dec.Format()
	n := int(dec.Uvarint())
	if dec.Err() == nil && n < len(cells) {
		dec.Failf("truncated: %d entries for %d objects", n, len(cells))
	}
	cell := int64(0)
	for i := range cells {
		cell += dec.Varint()
		if cell != int64(int32(cell)) {
			dec.Failf("entry %d overflows int32", i)
		}
		cells[i] = int32(cell)
	}
	return dec.Err()
}

// segMBR returns the bounding rectangle of seg's samples within [lo, hi].
func segMBR(seg trajectory.Segment, lo, hi trajectory.Tick) geo.Rect {
	lo, hi = max(lo, seg.Start), min(hi, seg.End())
	if lo > hi {
		return geo.EmptyRect()
	}
	pos := seg.Pos[lo-seg.Start : hi-seg.Start+1]
	r := geo.Rect{Min: pos[0], Max: pos[0]}
	for _, p := range pos[1:] {
		if p.X < r.Min.X {
			r.Min.X = p.X
		} else if p.X > r.Max.X {
			r.Max.X = p.X
		}
		if p.Y < r.Min.Y {
			r.Min.Y = p.Y
		} else if p.Y > r.Max.Y {
			r.Max.Y = p.Y
		}
	}
	return r
}
