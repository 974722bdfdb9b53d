package pagefile

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzCodecRoundTrip drives the page layout's primitives through
// encode→decode with fuzz-chosen values, and additionally decodes a
// truncated and a corrupted copy of every encoding: whatever the bytes,
// decoders must either round-trip exactly or set Err() — never panic, never
// loop.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint8(0)) // flips the version byte
	f.Add(int64(42), uint8(0), uint8(3), uint8(200))
	f.Add(int64(-9), uint8(255), uint8(255), uint8(17))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, cut uint8, flip uint8) {
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
		np := int(dec.Uvarint())
		pred = 0.0
		for i := 0; i < np; i++ {
			p := dec.Float64Xor(pred)
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
		drainAll(NewDecoder(buf[:int(cut)%len(buf)]))
		mangled := append([]byte(nil), buf...)
		mangled[int(flip)%len(mangled)] ^= 0xFF
		drainAll(NewDecoder(mangled))
	})
}

// drainAll pulls every decoder primitive from d until it errors or the
// buffer empties, guarding against panics and unbounded allocation on
// corrupt input.
func drainAll(d *Decoder) {
	d.Format()
	for d.Err() == nil && d.Remaining() > 0 {
		d.Uvarint()
		d.Varint()
		d.Uint32Delta(nil)
		d.Int32SliceDelta()
		d.Uint32()
		d.Float64Xor(1.5)
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
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: got %v, want %v", what, i, got[i], want[i])
		}
	}
}
