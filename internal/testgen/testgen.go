// Package testgen derives test inputs from one byte string: datasets,
// contact networks, live event scripts and queries. A fuzz target reads the
// fuzzer's bytes through it, and its seeded twin runs the same body over
// Seeded's draws. A draw past the end of the bytes reads zeros, so any byte
// string is an input. Only tests import this package.
package testgen

import (
	"math/rand"
	"slices"
	"testing"

	"streach/internal/contact"
	"streach/internal/geo"
	"streach/internal/mobility"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// Source is a byte string that draws read front to back.
type Source struct{ data []byte }

func New(data []byte) *Source { return &Source{data} }

// Len is the number of bytes left.
func (s *Source) Len() int { return len(s.data) }

// Byte reads one byte, 0 past the end.
func (s *Source) Byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

// Intn reads the bytes n−1 needs (none for n ≤ 1, one for n ≤ 256, two for
// n ≤ 65536, …), big-endian, and returns their value modulo n. A fixture
// writes a draw of Intn(n ≤ 256) as the value's byte.
func (s *Source) Intn(n int) int {
	var v uint64
	for w := uint64(max(n-1, 0)); w > 0; w >>= 8 {
		v = v<<8 | uint64(s.Byte())
	}
	return int(v % uint64(max(n, 1)))
}

// Bool reads one byte and reports whether it is odd.
func (s *Source) Bool() bool { return s.Byte()%2 == 1 }

// Rest reads every byte left.
func (s *Source) Rest() []byte {
	rest := s.data
	s.data = nil
	return rest
}

// Random returns n bytes drawn from seed, the input of a fixed test.
func Random(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// MaxInput bounds Seeded's inputs: a header and 256 four-byte records.
const MaxInput = 16 + 256*4

// Seeded runs body over cases inputs drawn from seed, a tenth of them under
// -short, each 0–MaxInput bytes long with every length equally likely. It
// stops at the first failing case and logs its input as a Go literal,
// ready for a fuzz target's f.Add.
func Seeded(t *testing.T, seed int64, cases int, body func(*testing.T, []byte)) {
	t.Helper()
	if testing.Short() {
		cases /= 10
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < cases && !t.Failed(); i++ {
		data := make([]byte, rng.Intn(MaxInput+1))
		rng.Read(data)
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("case %d of %d, seed %d: input %#v", i, cases, seed, data)
				}
			}()
			body(t, data)
		}()
	}
}

// Spec is a dataset, random waypoint unless Clustered. Its zero Side is the
// model's default density, so a literal names an RWP fixture by size and
// seed.
type Spec struct {
	Clustered      bool
	Objects, Ticks int
	Side           float64 // of the square environment, in metres
	Seed           int64
}

func (sp Spec) Dataset() *trajectory.Dataset {
	var env geo.Rect
	if sp.Side > 0 {
		env = geo.NewRect(geo.Point{}, geo.Point{X: sp.Side, Y: sp.Side})
	}
	if sp.Clustered {
		return mobility.Clustered(mobility.ClusteredConfig{NumObjects: sp.Objects, NumTicks: sp.Ticks, Env: env, Seed: sp.Seed})
	}
	return mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: sp.Objects, NumTicks: sp.Ticks, Env: env, Seed: sp.Seed})
}

func (sp Spec) Network() *contact.Network { return contact.Extract(sp.Dataset()) }

// Spec reads a dataset: clustered (a byte, when odd), 2 + Intn(maxObjects −
// 1) objects, 1 + Intn(maxTicks) ticks, a seed (Intn(2³²)) and, when side
// is 0, a side of 40·Intn(16) m.
func (s *Source) Spec(maxObjects, maxTicks int, side float64) Spec {
	sp := Spec{Clustered: s.Bool(), Side: side}
	sp.Objects = 2 + s.Intn(maxObjects-1)
	sp.Ticks = 1 + s.Intn(maxTicks)
	sp.Seed = int64(s.Intn(1 << 32))
	if side == 0 {
		sp.Side = 40 * float64(s.Intn(16))
	}
	return sp
}

// Network reads a raw contact network to the end of the Source, each byte
// modulo its range: objects less one (modulo maxObjects), ticks less one
// (modulo maxTicks), then up to maxContacts contacts of four bytes — two
// objects, equal ones included, the first tick and the further ticks.
// Both bounds are at most 256.
func (s *Source) Network(maxObjects, maxTicks, maxContacts int) *contact.Network {
	objects, ticks := 1+int(s.Byte())%maxObjects, 1+int(s.Byte())%maxTicks
	var cs []contact.Contact
	for s.Len() >= 4 && len(cs) < maxContacts {
		a, b := int(s.Byte())%objects, int(s.Byte())%objects
		lo := int(s.Byte()) % ticks
		hi := lo + int(s.Byte())%(ticks-lo)
		cs = append(cs, contact.Contact{A: trajectory.ObjectID(a), B: trajectory.ObjectID(b),
			Validity: contact.Interval{Lo: trajectory.Tick(lo), Hi: trajectory.Tick(hi)}})
	}
	return contact.FromContacts(objects, ticks, cs)
}

// EncodeNetwork is the inverse of Network for a network of at most 256
// objects and ticks, within the bounds Network reads it back with.
func EncodeNetwork(net *contact.Network) []byte {
	data := []byte{byte(net.NumObjects - 1), byte(net.NumTicks - 1)}
	for _, c := range net.Contacts {
		data = append(data, byte(c.A), byte(c.B), byte(c.Validity.Lo), byte(c.Validity.Hi-c.Validity.Lo))
	}
	return data
}

// Query is a seed frontier, its distinct objects (first seen first), a
// destination and an interval inside the time domain.
type Query struct {
	Seeds    []queries.SeedState
	Objs     []trajectory.ObjectID
	Dst      trajectory.ObjectID
	Interval contact.Interval
}

// Query reads a query over objects and ticks: the interval's start
// (Intn(ticks)) and span (Intn(ticks), capped at the last tick), 1 +
// Intn(4) seeds of an object (Intn(objects)), hops (Intn(3)) and a start
// offset (Intn(len + 2), so past the interval included), and the
// destination (Intn(objects)).
func (s *Source) Query(objects, ticks int) Query {
	var q Query
	q.Interval.Lo = trajectory.Tick(s.Intn(ticks))
	q.Interval.Hi = min(q.Interval.Lo+trajectory.Tick(s.Intn(ticks)), trajectory.Tick(ticks-1))
	for n := 1 + s.Intn(4); len(q.Seeds) < n; {
		seed := queries.SeedState{Obj: trajectory.ObjectID(s.Intn(objects)), Hops: int32(s.Intn(3))}
		seed.Start = q.Interval.Lo + trajectory.Tick(s.Intn(int(q.Interval.Len())+2))
		q.Seeds = append(q.Seeds, seed)
		if !slices.Contains(q.Objs, seed.Obj) {
			q.Objs = append(q.Objs, seed.Obj)
		}
	}
	q.Dst = trajectory.ObjectID(s.Intn(objects))
	return q
}
