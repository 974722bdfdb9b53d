package reachgrid

import (
	"bytes"
	"strings"
	"testing"

	"streach/internal/geo"
	"streach/internal/pagefile"
	"streach/internal/trajectory"
	"streach/internal/visit"
)

// blobGrid forges a one-bucket index of four cells over the given blobs:
// dir is the bucket's only directory chunk and cells its cell blobs (nil ⇒
// empty cell). The blobs go through AppendBlob, so their checksums are
// valid and whatever is wrong with them is for the decoders to find.
func blobGrid(numObjects, numTicks int, dir []byte, cells ...[]byte) *Index {
	env := geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 25})
	ix := &Index{
		params:     Params{CellSize: 25, BucketTicks: numTicks},
		store:      pagefile.NewStore(nil, -1),
		grid:       geo.NewGrid(env, 25),
		numObjects: numObjects,
		numTicks:   numTicks,
		dT:         2,
		pool:       visit.NewPool(func() *gridScratch { return new(gridScratch) }),
	}
	meta := bucketMeta{cellRefs: make([]pagefile.BlobRef, ix.grid.NumCells())}
	meta.span.Hi = trajectory.Tick(numTicks - 1)
	if dir != nil {
		meta.dirRefs = append(meta.dirRefs, ix.store.AppendBlob(dir))
	}
	for c, b := range cells {
		if b != nil {
			meta.cellRefs[c] = ix.store.AppendBlob(b)
		}
	}
	ix.buckets = append(ix.buckets, meta)
	return ix
}

// realBlobs returns the directory chunk and the four cell blobs of the
// crossing fixture.
func realBlobs(tb testing.TB) (dir []byte, cells [][]byte) {
	tb.Helper()
	ix, err := Build(crossingDataset(), Params{CellSize: 25, BucketTicks: 20})
	if err != nil {
		tb.Fatal(err)
	}
	read := func(ref pagefile.BlobRef) []byte {
		b, err := pagefile.Whole(ix.store.ReadBlob(ref, nil))
		if err != nil {
			tb.Fatal(err)
		}
		return bytes.Clone(b)
	}
	for _, ref := range ix.buckets[0].cellRefs {
		cells = append(cells, read(ref))
	}
	return read(ix.buckets[0].dirRefs[0]), cells
}

// oldVersionBlob is a copy of blob under version byte 1, that of the layout
// this one replaced.
func oldVersionBlob(blob []byte) []byte {
	old := bytes.Clone(blob)
	old[0] = 1
	return old
}

// FuzzCellBlob feeds arbitrary bytes to loadCell as a cell blob, alone or
// after a real cell of the same bucket has been buffered (so records naming
// its objects take the step-over path). The outcome may be an error that
// names the cell, or segments that hold up on their own: objects inside the
// dataset and findable through the table, sample counts the blob's size
// can account for, no position slice able to grow into its arena
// neighbour. The seeds are the real cells of the crossing fixture — whose
// decode must be exact — each again without its last byte, one under the
// version byte of the layout this one replaced, and one forgery per check
// loadCell makes before it reserves arena space.
func FuzzCellBlob(f *testing.F) {
	d := crossingDataset()
	numObjects, numTicks := d.NumObjects(), d.NumTicks()
	_, real := realBlobs(f)
	front := real[1] // a real cell to buffer in front
	for _, b := range real {
		f.Add(b, false)
		f.Add(b, true)
		f.Add(b[:len(b)-1], false)
	}
	f.Add(oldVersionBlob(real[2]), false)
	f.Add(oldVersionBlob(real[2]), true)
	forge := func(preload bool, objects uint64, first int64, start, samples uint64) {
		enc := pagefile.NewEncoder(32)
		enc.Format()
		enc.Uvarint(objects)
		enc.Varint(first) // the first object, then its segment
		enc.Uvarint(start)
		enc.Uvarint(samples)
		f.Add(bytes.Clone(enc.Bytes()), preload)
	}
	forge(false, 3, 2, 0, 1<<40)             // more samples than bytes
	forge(false, 1<<50, 2, 0, 1)             // more objects than bytes
	forge(false, 1, int64(numObjects), 0, 0) // an object outside the dataset
	forge(true, 1, 3, 0, uint64(numTicks)+1) // a repeat of a buffered object, longer than the dataset

	f.Fuzz(func(t *testing.T, data []byte, preload bool) {
		ix := blobGrid(numObjects, numTicks, nil, front, data)
		sc, acct := ix.begin(nil)
		defer ix.pool.Put(sc)
		sc.resetBucket(numObjects, ix.grid.NumCells())
		before := 0
		if preload {
			if err := ix.loadCell(0, 0, sc, acct); err != nil {
				t.Fatal(err)
			}
			before = sc.arena.Len()
		}
		err := ix.loadCell(0, 1, sc, acct)
		if err != nil && !strings.HasPrefix(err.Error(), "reachgrid: cell 1 of bucket 0: ") {
			t.Fatalf("error does not name the cell: %v", err)
		}
		// What was registered before an error must hold up as well.
		points := 0
		for i, seg := range sc.segs {
			if int(seg.Object) < 0 || int(seg.Object) >= numObjects {
				t.Fatalf("segment %d names object %d outside [0, %d)", i, seg.Object, numObjects)
			}
			if at, ok := sc.segAt.Get(int(seg.Object)); !ok || int(at) != i {
				t.Fatalf("object %d is segment %d but the table says %d (%v)", seg.Object, i, at, ok)
			}
			if len(seg.Pos) > numTicks || cap(seg.Pos) != len(seg.Pos) {
				t.Fatalf("object %d: %d samples with capacity %d (dataset has %d ticks)", seg.Object, len(seg.Pos), cap(seg.Pos), numTicks)
			}
			points += len(seg.Pos)
		}
		// A sample costs at least two bytes of the blob.
		if points != sc.arena.Len() || 2*(sc.arena.Len()-before) > len(data) {
			t.Fatalf("%d points buffered, arena holds %d (%d before), blob has %d bytes", points, sc.arena.Len(), before, len(data))
		}
		for _, b := range real {
			if !bytes.Equal(b, data) {
				continue
			}
			if err != nil {
				t.Fatalf("real cell refused: %v", err)
			}
			for _, seg := range sc.segs {
				want := d.Trajs[seg.Object].Slice(0, trajectory.Tick(numTicks-1))
				if seg.Start != want.Start || len(seg.Pos) != len(want.Pos) {
					t.Fatalf("object %d decoded as [%d, +%d)", seg.Object, seg.Start, len(seg.Pos))
				}
				for k := range want.Pos {
					if seg.Pos[k] != want.Pos[k] {
						t.Fatalf("object %d sample %d = %v, want %v", seg.Object, k, seg.Pos[k], want.Pos[k])
					}
				}
			}
		}
	})
}

// scanDirectory is the reference for dirLookup: the in-place scan that the
// decoded table replaced, a delta chain followed up to the entry asked for.
func scanDirectory(data []byte, idx int) (cell int64, ok bool) {
	dec := pagefile.NewDecoder(data)
	dec.Format()
	if n := int(dec.Uvarint()); idx >= n {
		return 0, false
	}
	for i := 0; i <= idx; i++ {
		cell += dec.Varint()
	}
	return cell, dec.Err() == nil
}

// FuzzDirChunk feeds arbitrary bytes to the directory read path as the
// chunk of a bucket whose cells are real. A lookup may fail; when it
// succeeds it returns what the in-place scan of the same bytes returns, it
// returns the same again when answered from the decoded table, and
// admitting the object through it either fails or leaves the object
// buffered — a cell outside the grid is refused, never indexed.
func FuzzDirChunk(f *testing.F) {
	d := crossingDataset()
	numObjects, numTicks := d.NumObjects(), d.NumTicks()
	dir, real := realBlobs(f)
	for o := 0; o < numObjects; o++ {
		f.Add(dir, uint16(o))
	}
	f.Add(dir[:len(dir)-1], uint16(numObjects-1))
	f.Add(oldVersionBlob(dir), uint16(0))
	forge := func(pick uint16, n uint64, deltas ...int64) {
		enc := pagefile.NewEncoder(32)
		enc.Format()
		enc.Uvarint(n)
		for _, v := range deltas {
			enc.Varint(v)
		}
		f.Add(bytes.Clone(enc.Bytes()), pick)
	}
	n := uint64(numObjects)
	forge(0, n, 1<<40, -1, -1, -1, -1, -1, -1) // a cell far outside the grid, and outside int32
	forge(1, 1<<50, 3)                         // more entries than bytes
	forge(2, n-1, 0, 1, 0, 1, 0, 1)            // fewer entries than objects
	forge(3, n+2, 0, 1, 0, 1, 0, 1, 0, 3, 3)   // more: the leading ones are this bucket's
	forge(0, n, -1, 1, 1, 1, 1, 1, 1)          // a negative cell
	forge(6, n, 0, 0, 0, 0, 0, 0, 4)           // the first cell past the grid
	forge(4, n, 3, -3, 3, -3, 3, -3, 3)        // in range, but not where the objects are
	f.Add([]byte{}, uint16(0))
	f.Add(dir[:1], uint16(0)) // the version byte and nothing else

	f.Fuzz(func(t *testing.T, data []byte, pick uint16) {
		o := trajectory.ObjectID(int(pick) % numObjects)
		ix := blobGrid(numObjects, numTicks, data, real...)
		sc, acct := ix.begin(nil)
		defer ix.pool.Put(sc)
		sc.resetBucket(numObjects, ix.grid.NumCells())
		cell, err := ix.dirLookup(0, o, sc, acct)
		again, errAgain := ix.dirLookup(0, o, sc, acct)
		if cell != again || (err == nil) != (errAgain == nil) {
			t.Fatalf("object %d: first lookup (%d, %v), second (%d, %v)", o, cell, err, again, errAgain)
		}
		if want, ok := scanDirectory(data, int(o)); err == nil && (!ok || int64(cell) != want) {
			t.Fatalf("object %d: lookup says cell %d, scanning the chunk says %d (%v)", o, cell, want, ok)
		}
		hi := trajectory.Tick(numTicks - 1)
		if ix.admitSeeds(0, sc, []trajectory.ObjectID{o}, 0, hi, acct) == nil {
			if _, ok := sc.segment(o); !ok {
				t.Fatalf("object %d admitted through cell %d but not buffered", o, cell)
			}
		}
	})
}
