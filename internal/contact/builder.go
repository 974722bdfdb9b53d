// Incremental contact-network construction (§6.2.1.2): positions arrive one
// time instant at a time (e.g. from a live location feed), contacts open
// when a pair first joins and close when it parts. Network snapshots can be
// taken at any point; the builder keeps accepting instants afterwards.
package contact

import (
	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// Builder assembles a contact network instant by instant.
type Builder struct {
	numObjects   int
	numTicks     int
	open         map[stjoin.Pair]trajectory.Tick
	minDist      map[stjoin.Pair]float32 // closest approach of open contacts
	closed       []Contact
	pairsPerTick []int32
	active       map[stjoin.Pair]bool
}

// NewBuilder returns an empty builder for numObjects objects.
func NewBuilder(numObjects int) *Builder {
	return &Builder{
		numObjects: numObjects,
		open:       map[stjoin.Pair]trajectory.Tick{},
		minDist:    map[stjoin.Pair]float32{},
		active:     map[stjoin.Pair]bool{},
	}
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
	b.addInstant(pairs, nil)
}

func (b *Builder) addInstant(pairs []stjoin.Pair, dists []float32) {
	t := trajectory.Tick(b.numTicks)
	b.numTicks++
	for k := range b.active {
		delete(b.active, k)
	}
	var count int32
	for i, pr := range pairs {
		if pr.A == pr.B || b.active[pr] {
			continue
		}
		b.active[pr] = true
		count++
		wasOpen := true
		if _, isOpen := b.open[pr]; !isOpen {
			b.open[pr] = t
			wasOpen = false
		}
		if dists != nil {
			if d, seen := b.minDist[pr]; !wasOpen || !seen || dists[i] < d {
				b.minDist[pr] = dists[i]
			}
		}
	}
	b.pairsPerTick = append(b.pairsPerTick, count)
	for pr, start := range b.open {
		if !b.active[pr] {
			b.closed = append(b.closed, Contact{A: pr.A, B: pr.B,
				Validity: Interval{Lo: start, Hi: t - 1}, Weight: b.minDist[pr]})
			delete(b.open, pr)
			delete(b.minDist, pr)
		}
	}
}

// Network snapshots the contact network over the instants ingested so far.
// Still-open contacts are closed at the last instant in the snapshot; the
// builder itself keeps them open and remains usable.
func (b *Builder) Network() *Network {
	net := &Network{
		NumObjects:   b.numObjects,
		NumTicks:     b.numTicks,
		Contacts:     append([]Contact(nil), b.closed...),
		pairsPerTick: append([]int32(nil), b.pairsPerTick...),
	}
	last := trajectory.Tick(b.numTicks) - 1
	for pr, start := range b.open {
		net.Contacts = append(net.Contacts, Contact{A: pr.A, B: pr.B,
			Validity: Interval{Lo: start, Hi: last}, Weight: b.minDist[pr]})
	}
	net.sortContacts()
	return net
}
