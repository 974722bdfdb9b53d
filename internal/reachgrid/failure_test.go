package reachgrid

import (
	"errors"
	"strings"
	"testing"

	"streach/internal/contact"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// TestCorruptedStoreSurfacesError flips bytes across the store and checks
// that queries touching the damage report ErrCorruptBlob instead of
// returning wrong answers or panicking.
func TestCorruptedStoreSurfacesError(t *testing.T) {
	d := testDataset(t, 40, 200, 51)
	ix := buildIndex(t, d, Params{PoolPages: -1}) // disable caching: damage must be seen
	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: d.NumObjects(), NumTicks: d.NumTicks(),
		Count: 30, MinLen: 50, MaxLen: 150, Seed: 53,
	})
	// Corrupt every 7th page.
	var corrupted int
	for p := int64(0); p < ix.Store().NumPages(); p += 7 {
		if err := ix.Store().CorruptPage(p, 13); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no pages corrupted")
	}
	var failures int
	for _, q := range work {
		_, err := ix.Reach(q)
		if err != nil {
			if !errors.Is(err, pagefile.ErrCorruptBlob) {
				t.Fatalf("%v: unexpected error type: %v", q, err)
			}
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no query hit a corrupted page; corruption pattern too sparse for the test")
	}
	t.Logf("%d/%d queries surfaced corruption", failures, len(work))

	// A cell and a directory chunk under the version byte of the layout
	// this one replaced, checksums valid: each is refused by an error
	// naming the version, and nothing behind the byte is decoded.
	dir, cells := realBlobs(t)
	for name, old := range map[string]*Index{
		"cell":            blobGrid(7, 20, dir, oldVersionBlob(cells[0])),
		"directory chunk": blobGrid(7, 20, oldVersionBlob(dir), cells...),
	} {
		sc, acct := old.begin(nil)
		sc.resetBucket(7, old.grid.NumCells())
		err := old.admitSeeds(0, sc, []trajectory.ObjectID{0}, 0, 19, acct) // object 0 idles in cell 0
		if err == nil || !strings.Contains(err.Error(), "version 1,") || len(sc.segs) != 0 {
			t.Errorf("version-1 %s: %d segments buffered, err = %v; want none and an error naming version 1", name, len(sc.segs), err)
		}
		old.pool.Put(sc)
	}
}

// TestSPJCorruptionSurfaces does the same through the SPJ path, which reads
// every cell and must therefore always hit the damage.
func TestSPJCorruptionSurfaces(t *testing.T) {
	d := testDataset(t, 30, 120, 57)
	ix := buildIndex(t, d, Params{PoolPages: -1})
	if err := ix.Store().CorruptPage(ix.Store().NumPages()/2, 99); err != nil {
		t.Fatal(err)
	}
	q := queries.Query{Src: 0, Dst: 5, Interval: contact.Interval{Lo: 0, Hi: trajectory.Tick(d.NumTicks() - 1)}}
	if _, err := ix.SPJReach(q); !errors.Is(err, pagefile.ErrCorruptBlob) {
		t.Fatalf("SPJ over corrupted store: err = %v, want ErrCorruptBlob", err)
	}
}

// TestCorruptionConfinedToItsBlob damages one byte at a time — every byte of
// a directory chunk and of a cell blob, integrity headers included — and
// checks that exactly the damaged blob fails with ErrCorruptBlob while its
// neighbour packed on the same page stays readable. The pool is on, so the
// reads after the first are pool hits: those are verified like misses.
func TestCorruptionConfinedToItsBlob(t *testing.T) {
	d := testDataset(t, 40, 200, 51)
	ix := buildIndex(t, d, Params{PoolPages: 64})
	sc := ix.pool.Get()
	defer ix.pool.Put(sc)
	sc.reset(ix)
	var acct pagefile.Stats
	readDir := func(bi int) error {
		_, err := ix.dirLookup(bi, 0, sc, &acct)
		return err
	}
	readCell := func(bi, cell int) error {
		sc.resetBucket(ix.numObjects, len(ix.buckets[bi].cellRefs))
		return ix.loadCell(bi, cell, sc, &acct)
	}

	// Two non-empty cells of one bucket packed on one page, and that
	// bucket's first directory chunk.
	bi, a, b := -1, -1, -1
	for i := range ix.buckets {
		prev := -1
		for c, r := range ix.buckets[i].cellRefs {
			if r.Null() {
				continue
			}
			if prev >= 0 && ix.buckets[i].cellRefs[prev].Page == r.Page {
				bi, a, b = i, prev, c
				break
			}
			prev = c
		}
		if bi >= 0 {
			break
		}
	}
	if bi < 0 {
		t.Fatal("no two cell blobs share a page; fixture unsuited to the test")
	}
	cases := []struct {
		what            string
		ref             pagefile.BlobRef
		damaged, intact func() error
	}{
		{"cell", ix.buckets[bi].cellRefs[a],
			func() error { return readCell(bi, a) }, func() error { return readCell(bi, b) }},
		{"directory chunk", ix.buckets[bi].dirRefs[0],
			func() error { return readDir(bi) }, func() error { return readCell(bi, a) }},
	}
	for _, c := range cases {
		for i := 0; i < int(c.ref.Bytes); i++ {
			g := int(c.ref.Off) + i
			page, off := c.ref.Page+int64(g/pagefile.PageSize), g%pagefile.PageSize
			if err := ix.Store().CorruptPage(page, off); err != nil {
				t.Fatal(err)
			}
			if err := c.damaged(); !errors.Is(err, pagefile.ErrCorruptBlob) {
				t.Fatalf("byte %d of a %s damaged: err = %v, want ErrCorruptBlob", i, c.what, err)
			}
			if err := c.intact(); err != nil {
				t.Fatalf("damage to a %s broke another blob: %v", c.what, err)
			}
			if err := ix.Store().CorruptPage(page, off); err != nil { // flip back
				t.Fatal(err)
			}
		}
		if err := c.damaged(); err != nil {
			t.Fatalf("repaired %s still fails: %v", c.what, err)
		}
	}
}
