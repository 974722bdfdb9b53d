package pagefile

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"streach/internal/testgen"
)

// FuzzCodecRoundTrip drives the page layout's primitives through
// encode→decode with fuzz-chosen values, and additionally decodes a
// truncated and a corrupted copy of every encoding: whatever the bytes,
// decoders must either round-trip exactly or set Err() — never panic, never
// loop. The run decoders (Uvarints, SkipVarints) are also held to a
// value-at-a-time binary.Uvarint over the encoding, both copies and a
// generated byte string, from every start within a word of the front.
//
// The input is a seed for the values (eight bytes), then three bytes: the value
// counts, where the truncated copy ends and which byte the corrupted copy
// flips.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 4, 0, 0}) // flips the version byte
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 42, 0, 3, 200})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 247, 255, 255, 17}) // seed −9
	f.Fuzz(codecRoundTrip)
}

// TestCodecRoundTripSeeded runs the fuzz body over 2000 seeded inputs.
func TestCodecRoundTripSeeded(t *testing.T) {
	testgen.Seeded(t, 20261017, 2000, codecRoundTrip)
}

func codecRoundTrip(t *testing.T, data []byte) {
	src := testgen.New(data)
	seed := int64(src.Intn(1<<32))<<32 | int64(src.Intn(1<<32))
	n, cut, flip := src.Byte(), src.Byte(), src.Byte()
	rng := rand.New(rand.NewSource(seed))

	ticks := make([]uint32, int(n)%61)
	for i := range ticks {
		ticks[i] = rng.Uint32() % (1 << 20)
		if i > 0 && ticks[i] < ticks[i-1] {
			ticks[i] = ticks[i-1] // Uint32Delta needs non-decreasing
		}
	}
	ids := make([]int32, int(n)%47)
	for i := range ids {
		ids[i] = int32(rng.Uint32())
	}
	pts := make([]float64, int(n)%23)
	for i := range pts {
		pts[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-6))
	}
	u64 := rng.Uint64()
	i64 := rng.Int63() - rng.Int63()

	enc := NewEncoder(64)
	enc.Format()
	enc.Uvarint(u64)
	enc.Varint(i64)
	enc.Int32SliceDelta(ids)
	enc.Uint32Delta(ticks)
	enc.Uvarint(uint64(len(pts)))
	pred := 0.0
	for i, p := range pts {
		enc.Float64Xor(pred, p)
		if i == 0 {
			pred = p
		} else {
			pred = 2*p - pts[i-1]
		}
	}
	buf := enc.Bytes()

	// Clean round trip must be exact.
	dec := NewDecoder(buf)
	dec.Format()
	checkEq(t, "u64", dec.Uvarint(), u64)
	checkEq(t, "i64", dec.Varint(), i64)
	gotIDs := dec.Int32SliceDelta()
	checkSlice(t, "ids", gotIDs, ids)
	gotTicks := dec.Uint32Delta(nil)
	checkSlice(t, "ticks", gotTicks, ticks)
	residuals := make([]uint64, int(dec.Uvarint()))
	dec.Uvarints(residuals)
	pred = 0.0
	for i, r := range residuals {
		p := math.Float64frombits(r ^ math.Float64bits(pred))
		checkEq(t, "pt", math.Float64bits(p), math.Float64bits(pts[i]))
		if i == 0 {
			pred = p
		} else {
			pred = 2*p - pts[i-1]
		}
	}
	if err := dec.Err(); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if dec.Remaining() != 0 {
		t.Fatalf("round trip left %d bytes", dec.Remaining())
	}

	// Truncated and bit-flipped copies must decode to values or an
	// error, never panic.
	truncated := buf[:int(cut)%len(buf)]
	drainAll(NewDecoder(truncated))
	mangled := append([]byte(nil), buf...)
	mangled[int(flip)%len(mangled)] ^= 0xFF
	drainAll(NewDecoder(mangled))

	// Generated bytes whose continuation bits are set with a seeded
	// probability, so runs of long, overlong and unterminated varints occur.
	junk := make([]byte, int(cut)%40)
	cont := rng.Intn(9)
	for i := range junk {
		junk[i] = byte(rng.Intn(0x80))
		if rng.Intn(8) < cont {
			junk[i] |= 0x80
		}
	}
	for _, data := range [][]byte{buf, truncated, mangled, junk} {
		checkVarintRuns(t, data)
	}
}

// checkVarintRuns holds Uvarints and SkipVarints, from every start in the
// first nine bytes and over runs within, across and past an 8-byte word
// and the end of data, to what decoding one value at a time with
// binary.Uvarint gives: the values, where the decoder ends up, and the
// error.
func checkVarintRuns(t *testing.T, data []byte) {
	t.Helper()
	for start := 0; start <= min(len(data), 9); start++ {
		for _, k := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, len(data) - start, len(data) - start + 1} {
			if k < 0 {
				continue
			}
			// The reference: one binary.Uvarint per value.
			want := make([]uint64, 0, k)
			off, wantErr := start, ""
			for len(want) < k {
				v, n := binary.Uvarint(data[off:])
				if n <= 0 {
					wantErr = fmt.Sprintf("pagefile: truncated or overlong uvarint at offset %d", off)
					break
				}
				want = append(want, v)
				off += n
			}
			dec := NewDecoder(data)
			dec.Skip(start)
			got := make([]uint64, k)
			dec.Uvarints(got)
			if e := errText(dec.Err()); e != wantErr {
				t.Fatalf("% x from %d, %d values: Uvarints error %q, want %q", data, start, k, e, wantErr)
			}
			checkSlice(t, "Uvarints", got[:len(want)], want)
			if dec.Remaining() != len(data)-off {
				t.Fatalf("% x from %d, %d values: Uvarints left %d bytes, want %d", data, start, k, dec.Remaining(), len(data)-off)
			}

			// The reference for skipping: terminator bytes, one at a time.
			off, left := start, k
			for ; left > 0 && off < len(data); off++ {
				if data[off] < 0x80 {
					left--
				}
			}
			wantErr = ""
			if left > 0 {
				wantErr = fmt.Sprintf("pagefile: buffer ends with %d varints still to skip", left)
				off = start
			}
			dec = NewDecoder(data)
			dec.Skip(start)
			dec.SkipVarints(k)
			if e := errText(dec.Err()); e != wantErr {
				t.Fatalf("% x from %d, skip %d: error %q, want %q", data, start, k, e, wantErr)
			}
			if dec.Remaining() != len(data)-off {
				t.Fatalf("% x from %d, skip %d: left %d bytes, want %d", data, start, k, dec.Remaining(), len(data)-off)
			}
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// drainAll pulls every decoder primitive from d until it errors or the
// buffer empties, guarding against panics and unbounded allocation on
// corrupt input.
func drainAll(d *Decoder) {
	var run [3]uint64
	d.Format()
	for d.Err() == nil && d.Remaining() > 0 {
		d.Uvarint()
		d.Varint()
		d.Uint32Delta(nil)
		d.Int32SliceDelta()
		d.Uint32()
		d.Uvarints(run[:])
		d.SkipVarints(2)
	}
}

func checkEq[T comparable](t *testing.T, what string, got, want T) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
}

func checkSlice[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
}
