package reachgrid

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"streach/internal/pagefile"
)

// indexDigest is the FNV-64a digest of an index's layout: per bucket, every
// directory chunk, then every non-empty cell with its cell ID, each blob
// with its position on the store and its bytes.
func indexDigest(t testing.TB, ix *Index) uint64 {
	t.Helper()
	h := fnv.New64a()
	blob := func(tag int, ref pagefile.BlobRef) {
		data, err := pagefile.Whole(ix.store.ReadBlob(ref, nil))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(binary.AppendVarint(nil, int64(tag)))
		h.Write(binary.AppendVarint(nil, ref.Page))
		h.Write(binary.AppendVarint(nil, int64(ref.Off)))
		h.Write(data)
	}
	for _, b := range ix.buckets {
		for _, ref := range b.dirRefs {
			blob(-1, ref)
		}
		for id, ref := range b.cellRefs {
			if !ref.Null() {
				blob(id, ref)
			}
		}
	}
	return h.Sum64()
}

// TestIndexBytesUnchanged pins the bytes Build writes and where it writes
// them: every page count and every answer of the grid follows from them.
// A build-path change must leave the constants alone unless it means to
// change the layout. The digests were re-recorded when the shared layout
// version byte went from 3 to 4 (a ReachGraph change): a copy of the
// previous build under byte 4 gives the same digests, so no other grid
// byte moved.
func TestIndexBytesUnchanged(t *testing.T) {
	for _, c := range []struct {
		name                 string
		objects, ticks, seed int
		params               Params
		pages                int64
		digest               uint64
	}{
		// TestSweepCountsUnchanged's fixture and pool.
		{"sweep-fixture", 120, 400, 16, Params{PoolPages: 24}, 144, 0xf118bf03441d6d43},
		{"fine-cells", 60, 300, 5, Params{CellSize: 40, BucketTicks: 5}, 104, 0x61051694eb8373e3},
		{"tick-buckets", 40, 120, 9, Params{CellSize: 80, BucketTicks: 1}, 32, 0xd8b3735f082ef959},
	} {
		ix := buildIndex(t, testDataset(t, c.objects, c.ticks, int64(c.seed)), c.params)
		pages := ix.Store().SizeBytes() / pagefile.PageSize
		if got := indexDigest(t, ix); pages != c.pages || got != c.digest {
			t.Errorf("%s: %d pages, digest %#x; recorded %d, %#x", c.name, pages, got, c.pages, c.digest)
		}
	}
}
