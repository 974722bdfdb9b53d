// Per-instant pair tables: the representation of a contact network that is
// still changing. A Network stores contacts as validity intervals, which is
// what an index is built from, but a late contact or a retraction changes
// the intervals around it, so patching one means rebuilding the network. A
// PairTable stores the same content as one pair list per instant, so a
// patch replaces the lists of the instants it touches and nothing else.
package contact

import (
	"cmp"
	"slices"
	"sync"

	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// PairTable is a slab-local contact network kept per instant: the list at
// tick t holds the pairs in contact at t, sorted and de-duplicated, with no
// self-pairs. A table is immutable once published. Append and Apply return a
// new table that shares every list they did not touch, so a reader holding
// an older table keeps a consistent view for as long as it holds it.
type PairTable struct {
	NumObjects int
	ticks      [][]stjoin.Pair
	// extended records that an Append already used the spare capacity of
	// ticks, so the next Append on this same table must copy. Only writers
	// read or write it; callers serialise writers.
	extended bool

	netOnce sync.Once
	net     *Network
}

// NewPairTable returns an empty table for numObjects objects.
func NewPairTable(numObjects int) *PairTable {
	return &PairTable{NumObjects: numObjects}
}

// TableOf returns the per-instant table of net: one Snapshot sweep.
func TableOf(net *Network) *PairTable {
	tb := &PairTable{NumObjects: net.NumObjects, ticks: make([][]stjoin.Pair, net.NumTicks)}
	all := make([]stjoin.Pair, 0, net.ContactInstants())
	net.Snapshot(0, trajectory.Tick(net.NumTicks)-1, func(t trajectory.Tick, pairs []stjoin.Pair) bool {
		lo := len(all)
		all = append(all, pairs...)
		slices.SortFunc(all[lo:], comparePairs)
		// A full slice expression, so that no list can grow into the next.
		tb.ticks[t] = all[lo:len(all):len(all)]
		return true
	})
	return tb
}

// NumTicks returns the number of instants in the table.
func (tb *PairTable) NumTicks() int { return len(tb.ticks) }

// PairsAt returns the sorted pairs in contact at tick t (nil outside the
// table). The slice is the table's own: callers must not modify it.
func (tb *PairTable) PairsAt(t trajectory.Tick) []stjoin.Pair {
	if t < 0 || int(t) >= len(tb.ticks) {
		return nil
	}
	return tb.ticks[t]
}

// Has reports whether pr (normalized, A < B) is in contact at tick t.
func (tb *PairTable) Has(pr stjoin.Pair, t trajectory.Tick) bool {
	_, ok := slices.BinarySearchFunc(tb.PairsAt(t), pr, comparePairs)
	return ok
}

// Snapshot visits every tick in [lo, hi] in increasing order with the pairs
// in contact at that tick, the contract of Network.Snapshot. The pairs slice
// is the table's own: callers must not modify it. Returning false from visit
// stops the sweep.
func (tb *PairTable) Snapshot(lo, hi trajectory.Tick, visit func(t trajectory.Tick, pairs []stjoin.Pair) bool) {
	lo = max(lo, 0)
	hi = min(hi, trajectory.Tick(len(tb.ticks))-1)
	for t := lo; t <= hi; t++ {
		if !visit(t, tb.ticks[t]) {
			return
		}
	}
}

// Append returns the table extended by one instant holding pairs (sorted and
// de-duplicated into a list of the table's own, self-pairs dropped) and the
// number of distinct pairs the instant holds. The returned table shares tb's
// storage where it can; tb itself stays valid and unchanged.
func (tb *PairTable) Append(pairs []stjoin.Pair) (*PairTable, int) {
	list := make([]stjoin.Pair, 0, len(pairs))
	for _, pr := range pairs {
		if pr.A != pr.B {
			list = append(list, pr)
		}
	}
	slices.SortFunc(list, comparePairs)
	list = slices.Clip(slices.Compact(list))
	ticks := tb.ticks
	if tb.extended {
		ticks = slices.Clip(ticks)
	}
	tb.extended = true
	return &PairTable{NumObjects: tb.NumObjects, ticks: append(ticks, list)}, len(list)
}

// Network materializes the table as a contact network: one Builder pass,
// so the contacts are exactly those of a Builder fed the same instants. The
// result is computed once per table and shared; it must not be modified.
func (tb *PairTable) Network() *Network {
	tb.netOnce.Do(func() {
		b := NewBuilder(tb.NumObjects)
		for _, pairs := range tb.ticks {
			b.AddInstant(pairs)
		}
		tb.net = b.Network()
	})
	return tb.net
}

func comparePairs(x, y stjoin.Pair) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	return cmp.Compare(x.B, y.B)
}
