// Contact events: the unit of real-feed ingestion. Extract and Builder
// consume positions in strict tick order; an Event instead names one
// (pair, tick) co-location instant directly — possibly late, duplicated,
// or retracting an instant ingested earlier — and PairTable.Apply folds a
// batch of them into a per-instant table. This is the patch primitive of
// the segment log: a late batch copies a slab's table once and replaces the
// lists of the instants it touches, without touching the sealed index until
// a compaction rebuilds it.
package contact

import (
	"cmp"
	"slices"

	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// Event is one contact-instant mutation: objects A and B were within
// contact range at tick Tick (Retract false), or that observation is
// withdrawn (Retract true — a privacy delete or bad-data correction).
// Mirror marks a second copy of an event stored for another owner — the
// other endpoint's shard of a cross-shard contact: it is applied like any
// event but left out of every count, so the event is counted once, where
// its original lands.
type Event struct {
	Tick    trajectory.Tick
	A, B    trajectory.ObjectID
	Retract bool
	Mirror  bool
}

// EventCounts tallies what a batch of events did when applied, mirrored
// copies left out.
type EventCounts struct {
	// Applied counts adds landing on an instant where the pair was not
	// already in contact; Duplicates counts adds where it was.
	Applied, Duplicates int
	// Retracted counts retractions that removed a live contact instant;
	// Misses counts retractions of instants holding no such contact.
	Retracted, Misses int
}

// Apply returns a copy of tb with events folded in. Event ticks are local
// to tb and must lie in [0, NumTicks); events are applied in slice order
// within each tick, so an add followed by a retraction of the same pair at
// the same tick cancels out. The second result is the effective subset of
// events — duplicates and misses removed, pairs normalized to A < B, in
// tick order — chosen so that re-applying it to tb reproduces the same
// table. The copy shares every list of a tick no event changed; tb itself
// is never mutated. When nothing is kept the copy is tb's equal and may be
// dropped.
func (tb *PairTable) Apply(events []Event) (*PairTable, []Event, EventCounts) {
	sorted := slices.Clone(events)
	slices.SortStableFunc(sorted, func(x, y Event) int { return cmp.Compare(x.Tick, y.Tick) })
	next := &PairTable{NumObjects: tb.NumObjects, ticks: slices.Clone(tb.ticks)}
	var kept []Event
	var counts, mirrored EventCounts
	for i := 0; i < len(sorted); {
		t := sorted[i].Tick
		var list []stjoin.Pair // the tick's patched list, copied on first change
		cur := tb.ticks[t]
		for ; i < len(sorted) && sorted[i].Tick == t; i++ {
			ev := sorted[i]
			pr := stjoin.MakePair(ev.A, ev.B)
			ev.A, ev.B = pr.A, pr.B
			tally := &counts
			if ev.Mirror {
				tally = &mirrored
			}
			at, present := slices.BinarySearchFunc(cur, pr, comparePairs)
			switch {
			case !ev.Retract && present:
				tally.Duplicates++
				continue
			case ev.Retract && !present:
				tally.Misses++
				continue
			}
			if list == nil {
				list = slices.Clone(cur)
			}
			if ev.Retract {
				list = slices.Delete(list, at, at+1)
				tally.Retracted++
			} else {
				list = slices.Insert(list, at, pr)
				tally.Applied++
			}
			cur = list
			kept = append(kept, ev)
		}
		if list != nil {
			next.ticks[t] = slices.Clip(list)
		}
	}
	return next, kept, counts
}
