package pagefile

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"streach/internal/visit"
)

// TestQuickBlobRoundTrip stores arbitrary payloads and reads them back.
func TestQuickBlobRoundTrip(t *testing.T) {
	st := NewStore(nil, 8)
	f := func(payload []byte) bool {
		ref := st.AppendBlob(payload)
		got, err := Whole(st.ReadBlob(ref, nil))
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickCorruptionDetected flips one byte of a stored blob at an
// arbitrary offset; ReadBlob must fail with ErrCorruptBlob.
func TestQuickCorruptionDetected(t *testing.T) {
	f := func(payload []byte, where uint16) bool {
		if len(payload) == 0 {
			return true
		}
		st := NewStore(nil, 0) // no pool: corruption must be visible immediately
		ref := st.AppendBlob(payload)
		// Corrupt a byte inside the blob's payload region.
		page := ref.Page + int64(int(where)%int((int64(ref.Bytes)+PageSize-1)/PageSize))
		off := int(where) % PageSize
		// Stay within the blob's meaningful bytes on the last page.
		if page == ref.Page+int64(ref.Bytes-1)/PageSize {
			off = off % (int(ref.Bytes) - int(page-ref.Page)*PageSize)
		}
		if err := st.CorruptPage(page, off); err != nil {
			return false
		}
		_, err := Whole(st.ReadBlob(ref, nil))
		return errors.Is(err, ErrCorruptBlob)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickEveryBitFlipDetected lays out, for arbitrary sizes and contents,
// a page of packed blobs followed by a multi-page extent whose tail page
// takes one more packed blob, and then flips every single bit of the page
// range one at a time. A flip inside a single-page blob — header included —
// must fail that blob's read, and only that blob's, with ErrCorruptBlob. A
// flip on page j of the multi-page blob must fail exactly the verifications
// that cover j (a flip in its length field, the read itself), and its
// tail-page neighbour and page slack must fail nothing. Each read verifies a
// page once: covering it again through the same set costs nothing. The pool
// is large enough that every read after the first is a hit: hits are
// verified like misses.
func TestQuickEveryBitFlipDetected(t *testing.T) {
	f := func(seed int64, sizeA, sizeB uint8, spanRaw, cut uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		st := NewStore(nil, 64)
		span := 2 + int(spanRaw%3)
		sizes := []int{
			int(sizeA), int(sizeB), // packed together on page 0
			span*PageSize - blobHeaderSize - 64 - int(cut%(PageSize/2)), // own extent, pages 1..span
			16, // packed in the extent's tail page
		}
		const big = 2
		refs := make([]BlobRef, len(sizes))
		for i, n := range sizes {
			data := make([]byte, n)
			rng.Read(data)
			refs[i] = st.AppendBlob(data)
		}
		if refs[1].Page != 0 || refs[big].Page != 1 || refs[3].Page != int64(span) || st.NumPages() != int64(span)+1 {
			t.Errorf("unexpected layout %+v", refs)
			return false
		}
		// owner[b] is the blob holding byte b of the store, or -1 for slack.
		owner := make([]int, st.NumPages()*PageSize)
		for b := range owner {
			owner[b] = -1
		}
		for i, r := range refs {
			start := int(r.Page)*PageSize + int(r.Off)
			for b := start; b < start+int(r.Bytes); b++ {
				owner[b] = i
			}
		}
		var seen visit.Set
		for b, own := range owner {
			for bit := 0; bit < 8; bit++ {
				st.pages[b/PageSize][b%PageSize] ^= 1 << bit
				for i, r := range refs {
					// Reading the big extent for every flip elsewhere
					// would square the cost; its neighbours' flips are
					// checked against it on one bit per byte.
					if i == big && own != big && bit != b%8 {
						continue
					}
					var acct Stats
					blob, err := st.ReadBlob(r, &acct)
					damaged := i == own
					if i == big && damaged && b < int(r.Page)*PageSize+4 {
						damaged = false // the length: the read itself fails
						if !errors.Is(err, ErrCorruptBlob) {
							t.Errorf("bit %d of byte %d (the big blob's length): read err = %v, want ErrCorruptBlob", bit, b, err)
							return false
						}
						continue
					}
					if i != big {
						if damaged != errors.Is(err, ErrCorruptBlob) || (!damaged && err != nil) {
							t.Errorf("bit %d of byte %d (owner %d): blob %d read err = %v", bit, b, own, i, err)
							return false
						}
						continue
					}
					if err != nil {
						t.Errorf("bit %d of byte %d (owner %d): the big blob's read failed: %v", bit, b, own, err)
						return false
					}
					seen.Reset(int(st.NumPages()))
					for j := 0; j < span; j++ {
						lo, hi := j*PageSize-blobHeaderSize, (j+1)*PageSize-blobHeaderSize
						want := damaged && b/PageSize == int(r.Page)+j
						for pass := 0; pass < 2; pass++ {
							err := blob.Verify(lo, hi, &seen)
							if want != errors.Is(err, ErrCorruptBlob) || (!want && err != nil) {
								t.Errorf("bit %d of byte %d (owner %d): page %d of the big blob, pass %d: err = %v", bit, b, own, j, pass, err)
								return false
							}
						}
					}
					if verified := int(acct.PagesVerified); (!damaged && verified != span) || (damaged && verified != span-1) {
						t.Errorf("bit %d of byte %d (owner %d): %d pages verified of %d", bit, b, own, verified, span)
						return false
					}
					if _, err := Whole(blob, nil); damaged != errors.Is(err, ErrCorruptBlob) || (!damaged && err != nil) {
						t.Errorf("bit %d of byte %d (owner %d): whole big blob err = %v", bit, b, own, err)
						return false
					}
				}
				st.pages[b/PageSize][b%PageSize] ^= 1 << bit
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Error(err)
	}
}

// TestQuickEncoderDecoderRoundTrip round-trips random record shapes.
func TestQuickEncoderDecoderRoundTrip(t *testing.T) {
	f := func(a int32, b uint32, c int64, d float64, s []int32) bool {
		e := NewEncoder(64)
		e.Int32(a)
		e.Uint32(b)
		e.Int64(c)
		e.Float64(d)
		e.Int32SliceDelta(s)
		dec := NewDecoder(e.Bytes())
		if dec.Int32() != a || dec.Uint32() != b || dec.Int64() != c {
			return false
		}
		if got := dec.Float64(); got != d && !(got != got && d != d) { // NaN-safe
			return false
		}
		got := dec.Int32SliceDelta()
		if dec.Err() != nil || len(got) != len(s) {
			return false
		}
		for i := range s {
			if got[i] != s[i] {
				return false
			}
		}
		return dec.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickPoolNeverExceedsCapacity hammers a pool with arbitrary page
// sequences and checks the capacity invariant plus residency of the page
// just accessed.
func TestQuickPoolNeverExceedsCapacity(t *testing.T) {
	f := func(pages []uint8, capRaw uint8) bool {
		capacity := int(capRaw%7) + 1
		bp := NewBufferPool(capacity)
		st := pageStore(bp, 32)
		for _, p := range pages {
			page := int64(p % 32)
			touch(t, st, page)
			if bp.Len() > capacity {
				return false
			}
			if !touch(t, st, page) {
				return false // just-accessed page must be resident
			}
		}
		s := bp.Stats()
		return s.Hits+s.Misses == int64(2*len(pages)) && s.Evictions <= s.Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
