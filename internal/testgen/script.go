package testgen

import (
	"slices"

	"streach/internal/contact"
	"streach/internal/trajectory"
)

// OpKind is what one step of an event script does to a live log.
type OpKind uint8

const (
	OpInstant OpKind = iota // Events at the frontier as one batch, then the clock advanced over the instant
	OpBatch                 // Events as one batch, then slabs with Threshold pending events compacted
	OpAdvance               // the clock advanced to To ticks, leaving a gap
	OpCompact               // every slab with pending events compacted
	OpFail                  // the next build fails
	OpReplay                // the last OpBatch's Events again, each Retract flipped or none
)

// Op is one step of an event script.
type Op struct {
	Kind      OpKind
	Events    []contact.Event
	Threshold int // OpBatch; 0 compacts nothing
	To        int // OpAdvance
}

// Script reads an event script one op at a time: each op depends on the
// frontier that the ops before it moved.
type Script struct {
	Objects, Width int // the population and the slab width
	src            *Source
	last           []contact.Event
}

// Script reads a script's objects (2 + Intn(7)) and slab width
// (1 + Intn(16)).
func (s *Source) Script() *Script {
	return &Script{Objects: 2 + s.Intn(7), Width: 1 + s.Intn(16), src: s}
}

// More reports whether bytes are left for another op.
func (sc *Script) More() bool { return sc.src.Len() > 0 }

// Next reads the op run at a frontier of frontier ticks: its kind
// (Intn(6)), then
//
//	OpInstant  k p×k       k%8 pairs
//	OpBatch    k c (t p f)×(1+k%6)
//	                       threshold c%4, each event at tick
//	                       Intn(frontier + 4·Width + 2), a retraction when f
//	                       is odd
//	OpAdvance  d           To = frontier + 1 + Intn(2·Width)
//	OpReplay   f           every Retract flipped when f is odd
//
// where a pair p is one byte (see pair).
func (sc *Script) Next(frontier int) Op {
	s := sc.src
	op := Op{Kind: OpKind(s.Intn(6))}
	switch op.Kind {
	case OpInstant:
		op.Events = make([]contact.Event, s.Intn(8))
		for i := range op.Events {
			a, b := s.pair(sc.Objects)
			op.Events[i] = contact.Event{Tick: trajectory.Tick(frontier), A: a, B: b}
		}
	case OpBatch:
		op.Events = make([]contact.Event, 1+s.Intn(6))
		op.Threshold = s.Intn(4)
		for i := range op.Events {
			tick := trajectory.Tick(s.Intn(frontier + 4*sc.Width + 2))
			a, b := s.pair(sc.Objects)
			op.Events[i] = contact.Event{Tick: tick, A: a, B: b, Retract: s.Bool()}
		}
		sc.last = op.Events
	case OpAdvance:
		op.To = frontier + 1 + s.Intn(2*sc.Width)
	case OpReplay:
		flip := s.Bool()
		op.Events = slices.Clone(sc.last)
		for i := range op.Events {
			op.Events[i].Retract = op.Events[i].Retract != flip
		}
	}
	return op
}

// pair reads one byte p as two distinct objects of n: p%n and (p/n)%n, the
// second bumped when they coincide.
func (s *Source) pair(n int) (trajectory.ObjectID, trajectory.ObjectID) {
	p := int(s.Byte())
	a, b := p%n, (p/n)%n
	if a == b {
		b = (a + 1) % n
	}
	return trajectory.ObjectID(a), trajectory.ObjectID(b)
}

// Feed reads an in-order feed over objects (at least 2) and ticks: at each
// tick, perTick contacts (a pair byte each), each followed by its
// retraction when a byte modulo 100 is below retractPct.
func (s *Source) Feed(objects, ticks, perTick, retractPct int) []contact.Event {
	var evs []contact.Event
	for tk := range ticks {
		for range perTick {
			a, b := s.pair(objects)
			evs = append(evs, contact.Event{Tick: trajectory.Tick(tk), A: a, B: b})
			if int(s.Byte())%100 < retractPct {
				evs = append(evs, contact.Event{Tick: trajectory.Tick(tk), A: a, B: b, Retract: true})
			}
		}
	}
	return evs
}

// Permute reads a delivery order of events that keeps the one order a feed
// guarantees: a retraction that directly follows its add, as in a Feed,
// lands after it. The other events are shuffled (Intn(i+1) per place, from
// the back), then each such retraction is inserted at one of the places
// after its add (Intn).
func (s *Source) Permute(events []contact.Event) []contact.Event {
	withdraws := func(i int) bool {
		add := events[i]
		add.Retract = false
		return events[i].Retract && i > 0 && events[i-1] == add
	}
	var order []int
	for i := range events {
		if !withdraws(i) {
			order = append(order, i)
		}
	}
	for i := len(order) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for i := range events {
		if withdraws(i) {
			after := slices.Index(order, i-1) + 1
			order = slices.Insert(order, after+s.Intn(len(order)-after+1), i)
		}
	}
	out := make([]contact.Event, len(order))
	for i, idx := range order {
		out[i] = events[idx]
	}
	return out
}
