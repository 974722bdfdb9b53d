package pagefile

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// layoutVersion is the byte every index blob begins with: varint counts and
// ticks, delta-compressed sorted ID postings, prediction-XOR'd float64
// positions, run directories searchable through fixed-width anchors,
// ReachGraph vertices numbered partition by partition (positional partition
// directories, edges and runs without partition fields). The package
// comment's Integrity section has the rule for changing it.
const layoutVersion = 4

// Encoder serializes index records into the byte blobs stored by a Store.
// It is a thin, allocation-friendly wrapper over little-endian encoding;
// every index layout in streach (grid cells, graph partitions, hash tables)
// uses it so that on-disk formats stay uniform and testable.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the encoder for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint32 appends a fixed-width 32-bit value.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// Int32 appends a fixed-width signed 32-bit value.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 appends a fixed-width 64-bit value.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Int64 appends a fixed-width signed 64-bit value.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Float64 appends an IEEE-754 double.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Raw appends bytes verbatim (for records pre-encoded with another
// Encoder).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Byte appends one raw byte (format tags).
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Format appends the layout version byte; every index blob starts with one.
func (e *Encoder) Format() { e.Byte(layoutVersion) }

// Uvarint appends v in LEB128 variable-width encoding (1 byte for values
// below 128 — counts, ticks and deltas are almost always that small).
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends v in zig-zag varint encoding (small magnitudes of either
// sign stay short).
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// Int32SliceDelta appends a length-prefixed int32 slice as zig-zag varint
// deltas between consecutive elements. Any slice round-trips; sorted ID
// postings (small non-negative gaps) compress best.
func (e *Encoder) Int32SliceDelta(vs []int32) {
	e.Uvarint(uint64(len(vs)))
	prev := int32(0)
	for _, v := range vs {
		e.Varint(int64(v) - int64(prev))
		prev = v
	}
}

// Float64Xor appends v as the uvarint of bits(v) XOR bits(pred). When the
// caller predicts well (positions along a near-linear trajectory under a
// linear extrapolation predictor) the XOR has only a few noisy low bits and
// encodes in 1-3 bytes instead of 8. Decoding is the caller's: read the
// residuals back (Uvarints) and XOR each with the same pred; the predictor
// runs on already-decoded values on both sides, so the reconstruction is
// lossless for every input.
func (e *Encoder) Float64Xor(pred, v float64) {
	e.Uvarint(math.Float64bits(v) ^ math.Float64bits(pred))
}

// Decoder reads back records written by Encoder. Decoding past the end of
// the buffer or with inconsistent lengths returns an error rather than
// panicking, so corrupted pages surface as errors (failure injection in
// tests relies on this).
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Failf marks the decoder as failed with a caller-supplied reason (layout
// level validation: implausible counts, IDs outside the dataset). Later
// reads return zero values, exactly as after an internal decode error; an
// earlier error wins.
func (d *Decoder) Failf(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("pagefile: decode past end (need %d bytes, have %d)", n, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Skip advances past n bytes (fixed-width records whose values the caller
// does not need).
func (d *Decoder) Skip(n int) { d.take(n) }

// SkipVarints advances past n varints without decoding them. Signed and
// unsigned varints alike end at their first byte without a continuation
// bit, so one byte scan steps over either; a value is validated only if it
// is later decoded. The scan counts those terminators eight bytes at a time
// while the word holds fewer than are left to skip, then finds the last
// one byte by byte.
func (d *Decoder) SkipVarints(n int) {
	if d.err != nil {
		return
	}
	buf, off := d.buf, d.off
	for n > 0 && off+8 <= len(buf) {
		ends := bits.OnesCount64(^binary.LittleEndian.Uint64(buf[off:]) & 0x8080808080808080)
		if ends >= n {
			break
		}
		n -= ends
		off += 8
	}
	for ; n > 0; off++ {
		if off == len(buf) {
			d.err = fmt.Errorf("pagefile: buffer ends with %d varints still to skip", n)
			return
		}
		if buf[off] < 0x80 {
			n--
		}
	}
	d.off = off
}

// Uint32 reads a fixed-width 32-bit value (0 after an error).
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Int32 reads a fixed-width signed 32-bit value.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Uint64 reads a fixed-width 64-bit value (0 after an error).
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 reads a fixed-width signed 64-bit value.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Float64 reads an IEEE-754 double.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Byte reads one raw byte (0 after an error).
func (d *Decoder) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Format reads a blob's leading layout version byte and fails the decoder
// on any value but the one this build writes: the blob was written by
// another layout (or is corrupt), and decoding it would mis-read every field.
func (d *Decoder) Format() {
	if v := d.Byte(); d.err == nil && v != layoutVersion {
		d.err = fmt.Errorf("pagefile: page layout version %d, this build reads version %d", v, layoutVersion)
	}
}

// Uvarint reads a LEB128-encoded unsigned value (0 after an error).
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("pagefile: truncated or overlong uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Uvarints reads len(dst) LEB128-encoded unsigned values into dst in one
// pass over the buffer. A value below 128 costs one compare; one of up to
// eight bytes with eight bytes left is found and assembled from one
// little-endian word without a branch per byte; the rest go to
// binary.Uvarint. It fails exactly where a sequence of Uvarint calls would,
// with the same error; dst then holds the values in front of the failing
// one, and its rest is unspecified.
func (d *Decoder) Uvarints(dst []uint64) {
	if d.err != nil {
		return
	}
	buf, off := d.buf, d.off
	for i := range dst {
		if off < len(buf) && buf[off] < 0x80 {
			dst[i] = uint64(buf[off])
			off++
			continue
		}
		if off+8 <= len(buf) {
			w := binary.LittleEndian.Uint64(buf[off:])
			if ends := ^w & 0x8080808080808080; ends != 0 {
				// Keep the bytes up to the first terminator, then close
				// the gaps the continuation bits leave.
				w &= ends ^ (ends - 1)
				dst[i] = w&0x7f | w>>1&(0x7f<<7) | w>>2&(0x7f<<14) | w>>3&(0x7f<<21) |
					w>>4&(0x7f<<28) | w>>5&(0x7f<<35) | w>>6&(0x7f<<42) | w>>7&(0x7f<<49)
				off += (bits.TrailingZeros64(ends) + 1) / 8
				continue
			}
		}
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			d.err = fmt.Errorf("pagefile: truncated or overlong uvarint at offset %d", off)
			d.off = off
			return
		}
		dst[i] = v
		off += n
	}
	d.off = off
}

// Varint reads a zig-zag varint (0 after an error).
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("pagefile: truncated or overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int32SliceDelta reads a slice written by Encoder.Int32SliceDelta.
func (d *Decoder) Int32SliceDelta() []int32 {
	n := int(d.Uvarint())
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.err = fmt.Errorf("pagefile: implausible delta-list length %d with %d bytes left", n, d.Remaining())
		return nil
	}
	if n == 0 {
		return nil
	}
	vs := make([]int32, 0, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		delta := d.Varint()
		if d.err != nil {
			return nil
		}
		prev += delta
		if prev < math.MinInt32 || prev > math.MaxInt32 {
			d.err = fmt.Errorf("pagefile: delta list overflows int32 at element %d", i)
			return nil
		}
		vs = append(vs, int32(prev))
	}
	return vs
}
