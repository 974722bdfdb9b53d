package reachgraph

import (
	"errors"
	"strings"
	"testing"

	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/trajectory"
)

// TestCorruptedPartitionSurfacesError damages every fifth page and checks
// that every query either reports ErrCorruptBlob or answers as the oracle
// does — never a wrong answer — and that at least one meets the damage.
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
		got, err := diskReach(ix, q, BMBFS)
		switch {
		case errors.Is(err, pagefile.ErrCorruptBlob):
			failures++
		case err != nil:
			t.Fatalf("%v: unexpected error type: %v", q, err)
		case got != f.oracle.Reachable(q):
			t.Fatalf("%v: answered %v from a damaged index, the oracle says %v", q, got, !got)
		}
	}
	if failures == 0 {
		t.Fatal("no query hit a corrupted page")
	}
	t.Logf("%d/40 queries surfaced corruption", failures)

	// A partition under the version byte of the layout this one replaced,
	// checksum valid, is refused at its header by an error naming the
	// version: nothing behind the byte is decoded.
	old := blobIndex([]int32{0, int32(len(f.g.Nodes))}, f.g.NumObjects, oldVersionPartition(t, f.g))
	sc := old.begin(nil)
	defer old.pool.Put(sc)
	if err := sc.cur.loadPartition(0); err == nil || !strings.Contains(err.Error(), "version 3,") {
		t.Fatalf("version-3 partition: err = %v, want one naming version 3", err)
	}
}

// oldVersionBlob is a copy of blob under version byte 3, that of the layout
// this one replaced.
func oldVersionBlob(blob []byte) []byte {
	old := append([]byte(nil), blob...)
	old[0] = 3
	return old
}

// oldVersionPartition is the first partition of g's index under version
// byte 3.
func oldVersionPartition(tb testing.TB, g *dn.Graph) []byte {
	tb.Helper()
	ix, err := Build(g, Params{})
	if err != nil {
		tb.Fatal(err)
	}
	blob, err := pagefile.Whole(ix.store.ReadBlob(ix.partRefs[0], nil))
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
		if _, err := ix.findVertex(trajectory.ObjectID(o), 50, nil); err != nil {
			if !errors.Is(err, pagefile.ErrCorruptBlob) {
				t.Fatalf("unexpected error type: %v", err)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("no directory lookup surfaced the corruption")
	}

	// A run directory under version byte 3, checksum valid: an error naming
	// the version, not a lookup.
	blob, err := pagefile.Whole(ix.store.ReadBlob(ix.dirRefs[1], nil))
	if err != nil {
		t.Fatal(err)
	}
	ix.dirRefs[1] = ix.store.AppendBlob(oldVersionBlob(blob))
	if v, err := ix.findVertex(1, 50, nil); err == nil || !strings.Contains(err.Error(), "version 3,") {
		t.Fatalf("version-3 run directory: vertex %d, err = %v; want an error naming version 3", v, err)
	}
}

// TestCorruptionConfinedToItsBlob damages the store one byte at a time and
// checks the damage surfaces exactly where it is read: every byte of a
// directory blob — its integrity header included — fails that object's
// lookup and leaves the neighbour packed on the same page readable; a byte
// on each page of a multi-page partition extent fails the vertex lookups
// that interpret that page — the one whose record holds the byte among
// them — while every lookup that succeeds decodes the record Build wrote,
// and another partition stays readable; a byte of page slack fails nothing.
// The pool is on, so the reads after the first are pool hits: those are
// verified like misses.
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
		_, err := ix.findVertex(trajectory.ObjectID(o), 50, nil)
		return err
	}
	num, parts := layout(f.g, ix.params.PartitionDepth)
	// failing reads every vertex of partition pid in one query, all its
	// sections decoded, and returns those whose lookup met the damage.
	failing := func(pid int) map[dn.NodeID]bool {
		t.Helper()
		sc := ix.begin(nil)
		defer ix.pool.Put(sc)
		failed := map[dn.NodeID]bool{}
		for _, gid := range parts[pid] {
			id := num.of[gid]
			v, err := sc.cur.vertex(id)
			if err == nil {
				v, err = sc.cur.need(v, secOut|secIn|secLongOut|secLongIn)
			}
			switch {
			case errors.Is(err, pagefile.ErrCorruptBlob):
				failed[id] = true
			case err != nil:
				t.Fatalf("vertex %d: unexpected error type: %v", id, err)
			case !sameRecord(v, graphRecord(f.g, num.of, gid)):
				t.Fatalf("vertex %d decoded from a damaged partition differs from the graph's", id)
			}
		}
		return failed
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
	// Where each record lies in the extent, header included.
	type span struct {
		id     dn.NodeID
		lo, hi int
	}
	var records []span
	sc := ix.begin(nil)
	if err := sc.cur.loadPartition(int32(pid)); err != nil {
		t.Fatal(err)
	}
	for k, gid := range parts[pid] {
		rec, _, err := sc.cur.parts[pid].find(int32(k), &sc.cur.checked)
		if err != nil {
			t.Fatal(err)
		}
		id := num.of[gid]
		// A view of the extent: its capacity runs to the extent's last page.
		at := (int(ref.Bytes)+pagefile.PageSize-1)/pagefile.PageSize*pagefile.PageSize - cap(rec)
		records = append(records, span{id, at, at + len(rec)})
	}
	ix.pool.Put(sc)
	for b := 0; b < int(ref.Bytes); b += pagefile.PageSize {
		page := ref.Page + int64(b/pagefile.PageSize)
		// The page's first byte, and the first byte on it of a record.
		flip(page, 0)
		if len(failing(pid)) == 0 {
			t.Fatalf("page %d of partition %d damaged at its start: every lookup succeeded", page-ref.Page, pid)
		}
		if failed := failing(other); len(failed) != 0 {
			t.Fatalf("damage to partition %d broke partition %d: vertices %v", pid, other, failed)
		}
		flip(page, 0)
		for _, r := range records {
			if r.hi <= b || r.lo >= b+pagefile.PageSize {
				continue
			}
			at := max(r.lo, b)
			flip(page, at-b)
			if !failing(pid)[r.id] {
				t.Fatalf("byte %d of vertex %d's record (page %d of partition %d) damaged: its lookup succeeded", at-r.lo, r.id, page-ref.Page, pid)
			}
			flip(page, at-b)
			break
		}
	}
	if failed := failing(pid); len(failed) != 0 {
		t.Fatalf("repaired partition still fails: vertices %v", failed)
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
