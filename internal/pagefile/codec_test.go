package pagefile

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestVarintRoundTrip(t *testing.T) {
	enc := NewEncoder(64)
	uvals := []uint64{0, 1, 127, 128, 300, 1 << 20, math.MaxUint64}
	ivals := []int64{0, -1, 1, -64, 64, -300, 300, math.MinInt64, math.MaxInt64}
	for _, v := range uvals {
		enc.Uvarint(v)
	}
	for _, v := range ivals {
		enc.Varint(v)
	}
	dec := NewDecoder(enc.Bytes())
	for _, want := range uvals {
		if got := dec.Uvarint(); got != want {
			t.Fatalf("Uvarint: got %d, want %d", got, want)
		}
	}
	for _, want := range ivals {
		if got := dec.Varint(); got != want {
			t.Fatalf("Varint: got %d, want %d", got, want)
		}
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if dec.Remaining() != 0 {
		t.Fatalf("%d bytes left over", dec.Remaining())
	}
}

// TestSkipVarints steps over mixed signed and unsigned varints of every
// width and must land exactly where decoding them would; a buffer that ends
// before the count is reached is an error that leaves the position alone.
func TestSkipVarints(t *testing.T) {
	enc := NewEncoder(64)
	enc.Uvarint(0)
	enc.Varint(-300)
	enc.Uvarint(math.MaxUint64)
	enc.Varint(math.MinInt64)
	enc.Uvarint(77) // the value behind the skipped run
	dec := NewDecoder(enc.Bytes())
	dec.SkipVarints(0)
	dec.SkipVarints(4)
	if got := dec.Uvarint(); got != 77 || dec.Err() != nil || dec.Remaining() != 0 {
		t.Fatalf("after skipping 4 varints: read %d (err %v, %d bytes left), want 77", got, dec.Err(), dec.Remaining())
	}

	short := NewDecoder(enc.Bytes()[:enc.Len()-1])
	short.SkipVarints(6)
	if short.Err() == nil {
		t.Fatal("skipping more varints than the buffer holds: want an error")
	}
	if short.Remaining() != enc.Len()-1 {
		t.Fatalf("failed skip moved the decoder: %d bytes left of %d", short.Remaining(), enc.Len()-1)
	}
}

func TestUint32DeltaRoundTrip(t *testing.T) {
	for _, vs := range [][]uint32{
		nil,
		{0},
		{5},
		{0, 0, 0},
		{1, 2, 3, 100, 100, 1 << 30, math.MaxUint32},
	} {
		enc := NewEncoder(64)
		enc.Uint32Delta(vs)
		dec := NewDecoder(enc.Bytes())
		got := dec.Uint32Delta(nil)
		if err := dec.Err(); err != nil {
			t.Fatalf("%v: %v", vs, err)
		}
		if len(got) != len(vs) {
			t.Fatalf("%v: got %v", vs, got)
		}
		for i := range vs {
			if got[i] != vs[i] {
				t.Fatalf("%v: got %v", vs, got)
			}
		}
	}
}

func TestInt32SliceDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][]int32{
		nil,
		{0},
		{-1, 1, -1},
		{math.MinInt32, math.MaxInt32, 0},
	}
	random := make([]int32, 500)
	for i := range random {
		random[i] = int32(rng.Uint32())
	}
	cases = append(cases, random)
	for _, vs := range cases {
		enc := NewEncoder(64)
		enc.Int32SliceDelta(vs)
		dec := NewDecoder(enc.Bytes())
		got := dec.Int32SliceDelta()
		if err := dec.Err(); err != nil {
			t.Fatalf("%v: %v", vs, err)
		}
		if len(got) != len(vs) {
			t.Fatalf("len %d, want %d", len(got), len(vs))
		}
		for i := range vs {
			if got[i] != vs[i] {
				t.Fatalf("element %d: got %d, want %d", i, got[i], vs[i])
			}
		}
	}
}

// TestInt32SliceDeltaCompressesSortedPostings pins the point of the format:
// a sorted dense posting list must encode well below 4 bytes per element.
func TestInt32SliceDeltaCompressesSortedPostings(t *testing.T) {
	vs := make([]int32, 1000)
	for i := range vs {
		vs[i] = int32(3 * i)
	}
	enc := NewEncoder(64)
	enc.Int32SliceDelta(vs)
	if n := enc.Len(); n > len(vs)*2 {
		t.Fatalf("sorted postings took %d bytes for %d elements", n, len(vs))
	}
}

// TestFormatByte: every blob starts with the layout version byte, and a
// decoder that finds any other value — the byte of the layout this one
// replaced included — fails with an error naming the version it found.
func TestFormatByte(t *testing.T) {
	enc := NewEncoder(4)
	enc.Format()
	if got := enc.Bytes(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("Format wrote % x, want the single byte 04", got)
	}
	dec := NewDecoder(enc.Bytes())
	if dec.Format(); dec.Err() != nil {
		t.Fatalf("own version byte rejected: %v", dec.Err())
	}
	for _, v := range []byte{0, 1, 2, 3, 5, 0x7F} {
		dec := NewDecoder([]byte{v})
		dec.Format()
		if err := dec.Err(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d,", v)) {
			t.Fatalf("version byte %d: err = %v, want one naming the version", v, err)
		}
	}
}

// TestDecoderTruncation feeds every strict prefix of an encoded stream to
// each decoder and checks truncation is reported, never panicked on.
func TestDecoderTruncation(t *testing.T) {
	enc := NewEncoder(64)
	enc.Uvarint(1 << 40)
	enc.Varint(-(1 << 40))
	enc.Uint32Delta([]uint32{1, 5, 500000})
	enc.Int32SliceDelta([]int32{-7, 7, 1 << 29})
	enc.Float64Xor(0, 3.7)
	full := enc.Bytes()
	residual := make([]uint64, 1)
	for cut := 0; cut < len(full); cut++ {
		dec := NewDecoder(full[:cut])
		dec.Uvarint()
		dec.Varint()
		dec.Uint32Delta(nil)
		dec.Int32SliceDelta()
		dec.Uvarints(residual)
		if dec.Err() == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

// BenchmarkUvarints decodes runs of 38 uvarints — the residuals of one
// 20-tick segment of a grid cell — in the mix a random-waypoint cell holds:
// about 93 % one byte (a sample on the predicted line), the rest seven or
// eight bytes (a sample at a turn). SetBytes counts the encoded bytes.
func BenchmarkUvarints(b *testing.B) {
	const runs, perRun = 256, 38
	rng := rand.New(rand.NewSource(1))
	enc := NewEncoder(runs * perRun * 2)
	for i := 0; i < runs*perRun; i++ {
		if rng.Intn(100) < 7 {
			enc.Uvarint(rng.Uint64() >> (8 + rng.Intn(8)))
		} else {
			enc.Uvarint(uint64(rng.Intn(128)))
		}
	}
	buf := enc.Bytes()
	dst := make([]uint64, perRun)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := NewDecoder(buf)
		for r := 0; r < runs; r++ {
			dec.Uvarints(dst)
		}
		if dec.Err() != nil || dec.Remaining() != 0 {
			b.Fatal(dec.Err(), dec.Remaining())
		}
	}
}

// Uint32Delta appends a sorted (non-decreasing) uint32 slice as a uvarint
// length, the first value, and uvarint gaps — the posting-list layout of
// the varint format. The caller must pass a non-decreasing slice.
func (e *Encoder) Uint32Delta(vs []uint32) {
	e.Uvarint(uint64(len(vs)))
	prev := uint32(0)
	for i, v := range vs {
		if i == 0 {
			e.Uvarint(uint64(v))
		} else {
			e.Uvarint(uint64(v - prev)) // non-negative by contract
		}
		prev = v
	}
}

// Uint32Delta reads a posting list written by Encoder.Uint32Delta,
// appending onto dst (which may be nil). The whole list is decoded in one
// pass over the remaining buffer — no per-element bounds-checked take.
func (d *Decoder) Uint32Delta(dst []uint32) []uint32 {
	n := int(d.Uvarint())
	if d.err != nil {
		return dst
	}
	// Every element costs at least one byte, so a length beyond the
	// remaining bytes is corrupt without reading further.
	if n < 0 || n > d.Remaining() {
		d.err = fmt.Errorf("pagefile: implausible delta-list length %d with %d bytes left", n, d.Remaining())
		return dst
	}
	prev := uint64(0)
	for i := 0; i < n; i++ {
		gap := d.Uvarint()
		if d.err != nil {
			return dst
		}
		if i == 0 {
			prev = gap
		} else {
			prev += gap
		}
		if prev > math.MaxUint32 {
			d.err = fmt.Errorf("pagefile: delta list overflows uint32 at element %d", i)
			return dst
		}
		dst = append(dst, uint32(prev))
	}
	return dst
}
