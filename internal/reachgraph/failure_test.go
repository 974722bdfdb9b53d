package reachgraph

import (
	"errors"
	"strings"
	"testing"

	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/trajectory"
)

// TestCorruptedPartitionSurfacesError damages partition pages and checks
// queries report ErrCorruptBlob rather than silently mis-answering.
func TestCorruptedPartitionSurfacesError(t *testing.T) {
	f := newFixture(t, 40, 250, 61)
	ix, err := Build(f.g, Params{PoolPages: -1})
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < ix.Store().NumPages(); p += 5 {
		if err := ix.Store().CorruptPage(p, 7); err != nil {
			t.Fatal(err)
		}
	}
	var failures int
	for _, q := range f.workload(40, 20, 200, 63) {
		_, err := ix.Reach(q)
		if err != nil {
			if !errors.Is(err, pagefile.ErrCorruptBlob) {
				t.Fatalf("%v: unexpected error type: %v", q, err)
			}
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no query hit a corrupted page")
	}
	t.Logf("%d/40 queries surfaced corruption", failures)

	// A partition under the version byte of the layout this one replaced,
	// checksum valid, is refused at its header by an error naming the
	// version: nothing behind the byte is decoded.
	old := blobIndex(len(f.g.Nodes), f.g.NumObjects, oldVersionPartition(t, f.g))
	sc := old.begin(nil)
	defer old.pool.Put(sc)
	if err := sc.cur.loadPartition(0); err == nil || !strings.Contains(err.Error(), "version 1,") {
		t.Fatalf("version-1 partition: err = %v, want one naming version 1", err)
	}
}

// oldVersionBlob is a copy of blob under version byte 1, that of the layout
// this one replaced.
func oldVersionBlob(blob []byte) []byte {
	old := append([]byte(nil), blob...)
	old[0] = 1
	return old
}

// oldVersionPartition is the first partition of g's index under version
// byte 1.
func oldVersionPartition(tb testing.TB, g *dn.Graph) []byte {
	tb.Helper()
	ix, err := Build(g, Params{})
	if err != nil {
		tb.Fatal(err)
	}
	blob, err := ix.store.ReadBlob(ix.partRefs[0], nil)
	if err != nil {
		tb.Fatal(err)
	}
	return oldVersionBlob(blob)
}

// TestTruncatedDirectoryFails damages an object-directory blob and checks
// the entry lookup fails loudly.
func TestTruncatedDirectoryFails(t *testing.T) {
	f := newFixture(t, 20, 100, 67)
	ix, err := Build(f.g, Params{PoolPages: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Damage a byte inside object 0's directory blob (blobs are packed
	// sub-page, so the byte offset must come from the ref, not from page
	// arithmetic).
	ref := ix.dirRefs[0]
	if err := ix.Store().CorruptPage(ref.Page, int(ref.Off)+3); err != nil {
		t.Fatal(err)
	}
	var sawErr bool
	for o := 0; o < 20 && !sawErr; o++ {
		if _, _, err := ix.findVertex(trajectory.ObjectID(o), 50, nil); err != nil {
			if !errors.Is(err, pagefile.ErrCorruptBlob) {
				t.Fatalf("unexpected error type: %v", err)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("no directory lookup surfaced the corruption")
	}

	// A run directory under version byte 1, checksum valid: an error naming
	// the version, not a lookup.
	blob, err := ix.store.ReadBlob(ix.dirRefs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	ix.dirRefs[1] = ix.store.AppendBlob(oldVersionBlob(blob))
	if v, _, err := ix.findVertex(1, 50, nil); err == nil || !strings.Contains(err.Error(), "version 1,") {
		t.Fatalf("version-1 run directory: vertex %d, err = %v; want an error naming version 1", v, err)
	}
}

// TestCorruptionConfinedToItsBlob damages the store one byte at a time and
// checks the damage surfaces exactly where it is: every byte of a directory
// blob — its integrity header included — fails that object's lookup and
// leaves the neighbour packed on the same page readable; a byte on each
// page of a multi-page partition extent fails that partition and no other;
// a byte of page slack fails nothing. The pool is on, so the reads after
// the first are pool hits: those are verified like misses.
func TestCorruptionConfinedToItsBlob(t *testing.T) {
	f := newFixture(t, 40, 250, 61)
	ix, err := Build(f.g, Params{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	// flip damages one byte; flipping it again repairs it.
	flip := func(page int64, off int) {
		t.Helper()
		if err := ix.Store().CorruptPage(page, off); err != nil {
			t.Fatal(err)
		}
	}
	lookup := func(o int) error {
		_, _, err := ix.findVertex(trajectory.ObjectID(o), 50, nil)
		return err
	}
	load := func(pid int) error {
		c := &cursor{}
		c.reset(ix.numNodes, len(ix.partRefs))
		c.ix = ix
		return c.loadPartition(int32(pid))
	}

	// A directory blob that shares its page with the next object's.
	o := -1
	for i := 0; i+1 < len(ix.dirRefs); i++ {
		if ix.dirRefs[i].Page == ix.dirRefs[i+1].Page {
			o = i
			break
		}
	}
	if o < 0 {
		t.Fatal("no two directory blobs share a page; fixture too large for the test")
	}
	ref := ix.dirRefs[o]
	for i := 0; i < int(ref.Bytes); i++ {
		flip(ref.Page, int(ref.Off)+i)
		if err := lookup(o); !errors.Is(err, pagefile.ErrCorruptBlob) {
			t.Fatalf("byte %d of object %d's directory damaged: lookup err = %v, want ErrCorruptBlob", i, o, err)
		}
		if err := lookup(o + 1); err != nil {
			t.Fatalf("damage to object %d's directory broke its page neighbour: %v", o, err)
		}
		flip(ref.Page, int(ref.Off)+i)
	}
	if err := lookup(o); err != nil {
		t.Fatalf("repaired directory still fails: %v", err)
	}

	// The partition with the longest extent, and any other partition.
	pid := 0
	for i, r := range ix.partRefs {
		if r.Bytes > ix.partRefs[pid].Bytes {
			pid = i
		}
	}
	ref = ix.partRefs[pid]
	if ref.Bytes <= pagefile.PageSize {
		t.Fatal("no multi-page partition; fixture too small for the test")
	}
	other := (pid + 1) % len(ix.partRefs)
	for b := int(ref.Bytes) - 1; b >= 0; b -= pagefile.PageSize { // one byte on each page, last byte first
		page, off := ref.Page+int64(b/pagefile.PageSize), b%pagefile.PageSize
		flip(page, off)
		if err := load(pid); !errors.Is(err, pagefile.ErrCorruptBlob) {
			t.Fatalf("page %d of partition %d damaged: load err = %v, want ErrCorruptBlob", page-ref.Page, pid, err)
		}
		if err := load(other); err != nil {
			t.Fatalf("damage to partition %d broke partition %d: %v", pid, other, err)
		}
		flip(page, off)
	}
	if err := load(pid); err != nil {
		t.Fatalf("repaired partition still fails: %v", err)
	}

	// Slack: the bytes after the last blob on the last page belong to none.
	last := ix.dirRefs[len(ix.dirRefs)-1]
	if end := int(last.Off) + int(last.Bytes); end < pagefile.PageSize {
		flip(last.Page, pagefile.PageSize-1)
		for o := range ix.dirRefs {
			if err := lookup(o); err != nil {
				t.Fatalf("damaged page slack broke object %d's directory: %v", o, err)
			}
		}
	}
}
