package contact

import (
	"strings"
	"testing"

	"streach/internal/pagefile"
	"streach/internal/trajectory"
)

func codecNetwork(contacts []Contact) *Network {
	maxObj, maxTick := 0, 0
	for _, c := range contacts {
		if int(c.A) > maxObj {
			maxObj = int(c.A)
		}
		if int(c.B) > maxObj {
			maxObj = int(c.B)
		}
		if int(c.Validity.Hi) > maxTick {
			maxTick = int(c.Validity.Hi)
		}
	}
	return FromContacts(maxObj+1, maxTick+1, contacts)
}

func TestContactsBlobRoundTrip(t *testing.T) {
	cases := map[string][]Contact{
		"empty": nil,
		"plain": {
			{A: 0, B: 1, Validity: Interval{Lo: 0, Hi: 4}},
			{A: 2, B: 5, Validity: Interval{Lo: 3, Hi: 3}},
			{A: 1, B: 2, Validity: Interval{Lo: 3, Hi: 9}},
		},
		"sidecar": {
			{A: 0, B: 1, Validity: Interval{Lo: 0, Hi: 4}, Weight: 12.5, Dur: 9},
			{A: 4, B: 7, Validity: Interval{Lo: 2, Hi: 2}, Weight: 0.25},
			{A: 1, B: 2, Validity: Interval{Lo: 8, Hi: 9}, Dur: 30},
		},
	}
	for name, contacts := range cases {
		net := codecNetwork(contacts)
		e := pagefile.NewEncoder(64)
		AppendContactsBlob(e, net.Contacts)
		got, err := DecodeContactsBlob(pagefile.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(got) != len(net.Contacts) {
			t.Fatalf("%s: %d contacts, want %d", name, len(got), len(net.Contacts))
		}
		for i, want := range net.Contacts {
			if got[i] != want {
				t.Fatalf("%s contact %d: got %+v, want %+v", name, i, got[i], want)
			}
		}
	}
}

// TestContactsBlobSidecarFlag: the blob of an unweighted contact list
// carries no sidecar flag, that of a weighted one does.
func TestContactsBlobSidecarFlag(t *testing.T) {
	plain := codecNetwork([]Contact{{A: 0, B: 1, Validity: Interval{Lo: 1, Hi: 3}}})
	e := pagefile.NewEncoder(16)
	AppendContactsBlob(e, plain.Contacts)
	if flags := e.Bytes()[1]; flags != 0 {
		t.Fatalf("unweighted blob has flags %#x, want 0", flags)
	}
	weighted := codecNetwork([]Contact{{A: 0, B: 1, Validity: Interval{Lo: 1, Hi: 3}, Weight: 2}})
	e.Reset()
	AppendContactsBlob(e, weighted.Contacts)
	if flags := e.Bytes()[1]; flags != sidecarFlag {
		t.Fatalf("weighted blob has flags %#x, want %#x", flags, sidecarFlag)
	}
}

// oldVersionBlob is a well-formed contact blob but for its leading byte: 1,
// the version of the layout this one replaced.
func oldVersionBlob() []byte {
	e := pagefile.NewEncoder(16)
	AppendContactsBlob(e, codecNetwork([]Contact{{A: 0, B: 1, Validity: Interval{Lo: 1, Hi: 3}}}).Contacts)
	blob := append([]byte(nil), e.Bytes()...)
	blob[0] = 1
	return blob
}

func TestContactsBlobCorrupt(t *testing.T) {
	for _, raw := range [][]byte{
		{},           // no version byte
		{99},         // unknown version
		{2, 0x80},    // unknown flags
		{2, 0, 200},  // count beyond remaining bytes
		{2, 0, 2, 1}, // truncated record
	} {
		if _, err := DecodeContactsBlob(pagefile.NewDecoder(raw)); err == nil {
			t.Errorf("decode(%v): want error, got none", raw)
		}
	}
	// The replaced layout's byte is an error naming the version, not a decode.
	if cs, err := DecodeContactsBlob(pagefile.NewDecoder(oldVersionBlob())); err == nil || !strings.Contains(err.Error(), "version 1,") {
		t.Errorf("version-1 blob: %d contacts, err %v; want an error naming version 1", len(cs), err)
	}
}

func FuzzContactCodecRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 0, 5, 3, 4, 2, 2})
	f.Add([]byte{0, 1, 0, 0, 9, 9, 1, 3, 200, 1})
	f.Add(oldVersionBlob())
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Derive a normalized contact list from the raw bytes, then demand
		// an exact round trip.
		var contacts []Contact
		for i := 0; i+5 < len(raw); i += 6 {
			a := trajectory.ObjectID(raw[i] % 32)
			b := trajectory.ObjectID(raw[i+1] % 32)
			if a == b {
				b = a + 1
			}
			lo := trajectory.Tick(raw[i+2])
			c := Contact{
				A: a, B: b,
				Validity: Interval{Lo: lo, Hi: lo + trajectory.Tick(raw[i+3]%16)},
				Dur:      int32(raw[i+4] % 64),
			}
			if raw[i+5]%2 == 1 {
				c.Weight = float32(raw[i+5]) / 8
			}
			contacts = append(contacts, c)
		}
		net := codecNetwork(contacts)
		e := pagefile.NewEncoder(64)
		AppendContactsBlob(e, net.Contacts)
		got, err := DecodeContactsBlob(pagefile.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(net.Contacts) {
			t.Fatalf("%d contacts, want %d", len(got), len(net.Contacts))
		}
		for i, want := range net.Contacts {
			if got[i] != want {
				t.Fatalf("contact %d: got %+v, want %+v", i, got[i], want)
			}
		}
		// Arbitrary bytes must fail cleanly, never panic.
		DecodeContactsBlob(pagefile.NewDecoder(raw))
	})
}
