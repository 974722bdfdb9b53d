// On-page contact blobs. A contact list serializes into one blob behind
// the same leading layout version byte as every index blob in streach, so
// disk-resident evaluators can store raw weighted contact logs on the
// simulated disk. The (Lo-sorted) list is delta-compressed and carries an
// optional weight/duration sidecar behind a flags byte: the blob of an
// unweighted network (flags 0) spends nothing on it.
package contact

import (
	"fmt"
	"math"

	"streach/internal/pagefile"
	"streach/internal/trajectory"
)

// sidecarFlag marks a blob carrying the per-contact weight/duration
// sidecar. Remaining flag bits are reserved and must be zero.
const sidecarFlag = 0x01

// AppendContactsBlob encodes cs onto e as one self-describing blob. The
// list must be Network-normalized: A < B, non-empty validities, sorted by
// Validity.Lo — exactly what Network.Contacts holds (FromContacts
// normalizes arbitrary lists).
func AppendContactsBlob(e *pagefile.Encoder, cs []Contact) {
	e.Format()
	var flags byte
	for _, c := range cs {
		if c.Weight != 0 || c.Dur != 0 {
			flags |= sidecarFlag
			break
		}
	}
	e.Byte(flags)
	e.Uvarint(uint64(len(cs)))
	prevLo := trajectory.Tick(0)
	prevA := trajectory.ObjectID(0)
	for _, c := range cs {
		e.Uvarint(uint64(c.Validity.Lo - prevLo)) // non-negative: Lo-sorted
		e.Varint(int64(c.A) - int64(prevA))
		e.Uvarint(uint64(c.B - c.A)) // positive: A < B
		e.Uvarint(uint64(c.Validity.Len() - 1))
		if flags&sidecarFlag != 0 {
			e.Uvarint(uint64(c.Dur))
			e.Uint32(math.Float32bits(c.Weight))
		}
		prevLo, prevA = c.Validity.Lo, c.A
	}
}

// DecodeContactsBlob reads back a blob written by AppendContactsBlob.
func DecodeContactsBlob(d *pagefile.Decoder) ([]Contact, error) {
	d.Format()
	flags := d.Byte()
	if d.Err() == nil && flags&^byte(sidecarFlag) != 0 {
		return nil, fmt.Errorf("contact: unknown blob flags %#x", flags)
	}
	n := int(d.Uvarint())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n < 0 || n > d.Remaining() { // every contact costs ≥ 1 byte
		return nil, fmt.Errorf("contact: implausible blob count %d with %d bytes left", n, d.Remaining())
	}
	cs := make([]Contact, 0, n)
	prevLo := trajectory.Tick(0)
	prevA := int64(0)
	for i := 0; i < n; i++ {
		var c Contact
		c.Validity.Lo = prevLo + trajectory.Tick(d.Uvarint())
		a := prevA + d.Varint()
		c.A = trajectory.ObjectID(a)
		c.B = c.A + trajectory.ObjectID(d.Uvarint())
		c.Validity.Hi = c.Validity.Lo + trajectory.Tick(d.Uvarint())
		if flags&sidecarFlag != 0 {
			c.Dur = int32(d.Uvarint())
			c.Weight = math.Float32frombits(d.Uint32())
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		cs = append(cs, c)
		prevLo, prevA = c.Validity.Lo, a
	}
	return cs, d.Err()
}
