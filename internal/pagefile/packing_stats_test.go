package pagefile

import (
	"bytes"
	"testing"
)

// packing_stats_test.go pins the I/O accounting of v2 sub-page blob
// packing: many small blobs share one 4 KiB page (BlobRef.Off locates
// them), and reading them back must charge each *page* exactly once per
// fetch — never once per blob — with the per-stream deltas, the store
// totals and the buffer-pool counters all telling the same story.

// packSmallBlobs appends n distinct small blobs and returns their refs;
// several land on each page.
func packSmallBlobs(st *Store, n int) []BlobRef {
	refs := make([]BlobRef, n)
	for i := range refs {
		refs[i] = st.AppendBlob(bytes.Repeat([]byte{byte(i)}, 40+i%7))
	}
	return refs
}

// TestPackedSamePageReadsCountOnce reads a run of packed blobs through one
// stream on a pool-less store: the first fetch of a page is random, every
// further fetch of the *same* page (the next blob behind the head) and of
// the successor page is sequential, and the page count charged equals the
// pages fetched — not the blobs read.
func TestPackedSamePageReadsCountOnce(t *testing.T) {
	st := NewStore(-1) // no pool: every read goes to "disk"
	refs := packSmallBlobs(st, 60)
	if st.NumPages() >= int64(len(refs)) {
		t.Fatalf("packing broken: %d blobs occupy %d pages", len(refs), st.NumPages())
	}
	var acct Stats
	samePage := 0
	for i, ref := range refs {
		if i > 0 && ref.Page == refs[i-1].Page {
			samePage++
		}
		if _, err := Whole(st.ReadBlob(ref, &acct)); err != nil {
			t.Fatal(err)
		}
	}
	if samePage == 0 {
		t.Fatal("test layout never co-located two blobs on a page")
	}
	if acct.RandomReads != 1 {
		t.Fatalf("ascending packed scan charged %d random reads, want 1", acct.RandomReads)
	}
	// One fetch per blob-page touch: same-page re-fetches and successor
	// pages are all sequential, and single-page blobs touch one page each.
	if want := int64(len(refs)) - 1; acct.SequentialReads != want {
		t.Fatalf("packed scan charged %d sequential reads, want %d", acct.SequentialReads, want)
	}
	if got := st.Counters(); got.RandomReads != acct.RandomReads || got.SequentialReads != acct.SequentialReads {
		t.Fatalf("store totals %+v diverge from the one stream's delta %+v", got, acct)
	}
}

// TestPackedDeltaTotalPoolInvariant is the delta==total==pool check under
// the packed layout: with a pool large enough to hold the store, each page
// is fetched from disk exactly once regardless of how many blobs it packs,
// and every later blob read on it is a buffer hit.
func TestPackedDeltaTotalPoolInvariant(t *testing.T) {
	st := NewStore(64)
	refs := packSmallBlobs(st, 60)
	base := st.Pool().Stats()

	var sum Stats
	for qi := 0; qi < 3; qi++ { // several "queries", each its own stream
		var acct Stats
		for _, ref := range refs {
			if _, err := Whole(st.ReadBlob(ref, &acct)); err != nil {
				t.Fatal(err)
			}
		}
		sum.Add(acct)
	}
	totals := st.Counters()
	if sum.RandomReads != totals.RandomReads ||
		sum.SequentialReads != totals.SequentialReads ||
		sum.BufferHits != totals.BufferHits {
		t.Fatalf("stream deltas %+v do not sum to store totals %+v", sum, totals)
	}
	pool := st.Pool().Stats()
	if misses := pool.Misses - base.Misses; totals.RandomReads+totals.SequentialReads != misses {
		t.Fatalf("totals count %d page fetches, pool saw %d misses",
			totals.RandomReads+totals.SequentialReads, misses)
	}
	if hits := pool.Hits - base.Hits; totals.BufferHits != hits {
		t.Fatalf("totals count %d buffer hits, pool saw %d", totals.BufferHits, hits)
	}
	// Each physical page was fetched exactly once: 60 blob reads × 3
	// queries missed only NumPages times in total.
	if fetched := totals.RandomReads + totals.SequentialReads; fetched != st.NumPages() {
		t.Fatalf("fetched %d pages from disk, want one fetch per page (%d)", fetched, st.NumPages())
	}
}

// TestPackedEncoderBlobsRoundTrip reads packed varint-encoded blobs back
// and checks payload integrity is independent of their page offset.
func TestPackedEncoderBlobsRoundTrip(t *testing.T) {
	st := NewStore(8)
	enc := NewEncoder(64)
	var refs []BlobRef
	for i := 0; i < 40; i++ {
		enc.Reset()
		enc.Format()
		enc.Uvarint(uint64(i))
		enc.Varint(int64(-i))
		refs = append(refs, st.AppendBlob(enc.Bytes()))
	}
	for i, ref := range refs {
		data, err := Whole(st.ReadBlob(ref, nil))
		if err != nil {
			t.Fatalf("blob %d (off %d): %v", i, ref.Off, err)
		}
		dec := NewDecoder(data)
		dec.Format()
		if u := dec.Uvarint(); u != uint64(i) {
			t.Fatalf("blob %d: uvarint %d", i, u)
		}
		if v := dec.Varint(); v != int64(-i) {
			t.Fatalf("blob %d: varint %d", i, v)
		}
		if err := dec.Err(); err != nil {
			t.Fatal(err)
		}
	}
}
