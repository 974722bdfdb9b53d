// Incremental contact-network construction (§6.2.1.2): positions arrive one
// time instant at a time (e.g. from a live location feed), contacts open
// when a pair first joins and close when it parts. Network snapshots can be
// taken at any point; the builder keeps accepting instants afterwards.
//
// The Builder is the one place where instants become contacts: Extract
// feeds it the pairs its joins find, in tick order, and a PairTable the
// pair lists of its instants. It stitches by merging: the contacts open
// after an instant are kept sorted by pair, so each instant is one merge of
// its sorted pair list against them, and nothing is hashed.
package contact

import (
	"math"
	"slices"

	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// Builder assembles a contact network instant by instant.
type Builder struct {
	numObjects   int
	numTicks     int
	open, next   []openContact // contacts open after the last instant, sorted by pair; next is merge scratch
	in           []sample      // AddInstant's scratch
	closed       []Contact
	pairsPerTick []int32
}

// openContact is a contact still open at the last instant ingested.
type openContact struct {
	pr    stjoin.Pair
	start trajectory.Tick
	dist  float32 // closest approach seen; noDist when no instant gave one
}

// sample is a pair observed at one instant, with its distance or noDist.
type sample struct {
	pr   stjoin.Pair
	dist float32
}

// noDist marks a sample without a position behind it: the minimum of it
// and any distance is that distance, and a contact that saw no distance
// closes with Weight 0.
var noDist = float32(math.Inf(1))

func compareSamples(x, y sample) int { return comparePairs(x.pr, y.pr) }

// NewBuilder returns an empty builder for numObjects objects.
func NewBuilder(numObjects int) *Builder {
	return &Builder{numObjects: numObjects}
}

// NumTicks returns the number of instants ingested so far.
func (b *Builder) NumTicks() int { return b.numTicks }

// NumObjects returns the number of objects the builder was created for.
func (b *Builder) NumObjects() int { return b.numObjects }

// AddInstant ingests the contact pairs active at the next instant.
// Contacts absent from pairs that were previously open are closed with the
// previous instant as their validity end. Pair sets carry no positions, so
// contacts ingested this way have a zero Weight.
func (b *Builder) AddInstant(pairs []stjoin.Pair) {
	in := b.in[:0]
	for _, pr := range pairs {
		in = append(in, sample{pr: pr, dist: noDist})
	}
	// A pair table's lists are sorted already; a stable sort keeps the
	// first of duplicate pairs first.
	if !slices.IsSortedFunc(in, compareSamples) {
		slices.SortStableFunc(in, compareSamples)
	}
	b.in = in
	b.addInstant(in)
}

// addInstant ingests the next instant from its samples sorted by pair. Of
// equal pairs the first counts and the rest are ignored, as are self
// pairs. A contact's Weight is the first distance seen, then the minimum.
func (b *Builder) addInstant(in []sample) {
	t := trajectory.Tick(b.numTicks)
	b.numTicks++
	open, next := b.open, b.next[:0]
	k := 0
	var count int32
	for i, s := range in {
		if s.pr.A == s.pr.B || i > 0 && in[i-1].pr == s.pr {
			continue
		}
		count++
		for k < len(open) && comparePairs(open[k].pr, s.pr) < 0 {
			b.close(open[k], t-1)
			k++
		}
		if k < len(open) && open[k].pr == s.pr {
			oc := open[k]
			oc.dist = min(oc.dist, s.dist)
			next = append(next, oc)
			k++
		} else {
			next = append(next, openContact{pr: s.pr, start: t, dist: s.dist})
		}
	}
	for ; k < len(open); k++ {
		b.close(open[k], t-1)
	}
	b.pairsPerTick = append(b.pairsPerTick, count)
	b.open, b.next = next, open
}

// close records open contact oc as ending at hi.
func (b *Builder) close(oc openContact, hi trajectory.Tick) {
	b.closed = append(b.closed, oc.contact(hi))
}

func (oc openContact) contact(hi trajectory.Tick) Contact {
	c := Contact{A: oc.pr.A, B: oc.pr.B, Validity: Interval{Lo: oc.start, Hi: hi}}
	if oc.dist != noDist {
		c.Weight = oc.dist
	}
	return c
}

// Network snapshots the contact network over the instants ingested so far.
// Still-open contacts are closed at the last instant in the snapshot; the
// builder itself keeps them open and remains usable.
func (b *Builder) Network() *Network {
	return b.network(slices.Clone(b.closed), slices.Clone(b.pairsPerTick))
}

// network is the snapshot over the given closed contacts and per-instant
// counts, which it appends to and keeps: Network passes copies, a caller
// done with the builder its own.
func (b *Builder) network(closed []Contact, pairsPerTick []int32) *Network {
	last := trajectory.Tick(b.numTicks) - 1
	for _, oc := range b.open {
		closed = append(closed, oc.contact(last))
	}
	// A pair opens at most once per instant, so no two contacts share a
	// sort key and any sort gives sortContacts' order.
	slices.SortFunc(closed, compareContacts)
	return &Network{
		NumObjects:   b.numObjects,
		NumTicks:     b.numTicks,
		Contacts:     closed,
		pairsPerTick: pairsPerTick,
	}
}
