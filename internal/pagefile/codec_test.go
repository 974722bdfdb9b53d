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

func TestFloat64XorRoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1, 3.14159, 1e-300, 1e300, math.Inf(1), math.Inf(-1)}
	enc := NewEncoder(64)
	pred := 0.0
	for _, v := range vals {
		enc.Float64Xor(pred, v)
		pred = v
	}
	dec := NewDecoder(enc.Bytes())
	pred = 0.0
	for _, want := range vals {
		got := dec.Float64Xor(pred)
		if got != want {
			t.Fatalf("got %v, want %v", got, want)
		}
		pred = got
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFloat64XorLinearPredictor pins the compression property the grid cell
// layout relies on: points along a line under the 2*b-a extrapolation
// predictor encode in a few bytes each, and reconstruction is bit-exact.
func TestFloat64XorLinearPredictor(t *testing.T) {
	pts := make([]float64, 64)
	for i := range pts {
		pts[i] = 5000.0 + 12.5*float64(i)
	}
	enc := NewEncoder(64)
	enc.Float64(pts[0])
	enc.Float64Xor(pts[0], pts[1])
	for i := 2; i < len(pts); i++ {
		enc.Float64Xor(2*pts[i-1]-pts[i-2], pts[i])
	}
	if n := enc.Len(); n > 8+len(pts)*3 {
		t.Fatalf("linear trajectory took %d bytes for %d points", n, len(pts))
	}
	dec := NewDecoder(enc.Bytes())
	got := make([]float64, len(pts))
	got[0] = dec.Float64()
	got[1] = dec.Float64Xor(got[0])
	for i := 2; i < len(pts); i++ {
		got[i] = dec.Float64Xor(2*got[i-1] - got[i-2])
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Fatalf("point %d: got %v, want %v", i, got[i], pts[i])
		}
	}
}

// TestFormatByte: every blob starts with the layout version byte, and a
// decoder that finds any other value — the byte of the layout this one
// replaced included — fails with an error naming the version it found.
func TestFormatByte(t *testing.T) {
	enc := NewEncoder(4)
	enc.Format()
	if got := enc.Bytes(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Format wrote % x, want the single byte 02", got)
	}
	dec := NewDecoder(enc.Bytes())
	if dec.Format(); dec.Err() != nil {
		t.Fatalf("own version byte rejected: %v", dec.Err())
	}
	for _, v := range []byte{0, 1, 3, 0x7F} {
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
	for cut := 0; cut < len(full); cut++ {
		dec := NewDecoder(full[:cut])
		dec.Uvarint()
		dec.Varint()
		dec.Uint32Delta(nil)
		dec.Int32SliceDelta()
		dec.Float64Xor(0)
		if dec.Err() == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
	}
}
