package reachgraph

import (
	"hash/fnv"
	"testing"

	"streach/internal/pagefile"
)

// indexDigest is the FNV-64a digest of an index's bytes: every partition
// blob in catalogue order, then every object's run-directory blob.
func indexDigest(t testing.TB, ix *Index) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, refs := range [][]pagefile.BlobRef{ix.partRefs, ix.dirRefs} {
		for _, ref := range refs {
			data, err := pagefile.Whole(ix.store.ReadBlob(ref, nil))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
	}
	return h.Sum64()
}

// TestIndexBytesUnchanged pins the bytes Build writes. How long edges are
// computed and held in memory is free to change; what lands on the pages is
// not, so every page count and every answer of the disk index is fixed
// with it. The constants were recorded by this test body at the commit
// whose long edges were still composed over maps on a mirrored graph, and
// re-recorded when run directories gained their anchors (layout version 3).
func TestIndexBytesUnchanged(t *testing.T) {
	for _, c := range []struct {
		name                 string
		objects, ticks, seed int
		params               Params
		partitions, dirBlobs int
		digest               uint64
	}{
		// TestSweepCountsUnchanged's fixture and pool.
		{"sweep-fixture", 60, 400, 16, Params{PoolPages: 16}, 105, 60, 0x576b79b510b17045},
		{"rwp-200x600", 200, 600, 5, Params{}, 976, 200, 0xf64269a4f1720241},
	} {
		f := newFixture(t, c.objects, c.ticks, int64(c.seed))
		ix, err := Build(f.g, c.params)
		if err != nil {
			t.Fatal(err)
		}
		if got := indexDigest(t, ix); len(ix.partRefs) != c.partitions || len(ix.dirRefs) != c.dirBlobs || got != c.digest {
			t.Errorf("%s: %d partitions, %d directories, digest %#x; recorded %d, %d, %#x",
				c.name, len(ix.partRefs), len(ix.dirRefs), got, c.partitions, c.dirBlobs, c.digest)
		}
	}
}
