// Package contact materializes the contact network C of §3: the set of all
// contacts between pairs of moving objects, each with a continuous validity
// interval, plus per-instant snapshot iteration (the G_t of the TEN model in
// §5.1.1) and the TEN size statistics reported in §6.2.1.1.
package contact

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"streach/internal/geo"
	"streach/internal/par"
	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// Interval is a closed tick interval [Lo, Hi]. An interval with Hi < Lo is
// empty.
type Interval struct {
	Lo, Hi trajectory.Tick
}

// Len returns the number of instants in the interval (|Tp| in the paper).
func (iv Interval) Len() int {
	if iv.Hi < iv.Lo {
		return 0
	}
	return int(iv.Hi-iv.Lo) + 1
}

// Contains reports whether tick t lies inside the interval.
func (iv Interval) Contains(t trajectory.Tick) bool { return t >= iv.Lo && t <= iv.Hi }

// Overlaps reports whether the two closed intervals share an instant.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Len() > 0 && o.Len() > 0 && iv.Lo <= o.Hi && o.Lo <= iv.Hi
}

// Intersect returns the common sub-interval (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	return Interval{Lo: lo, Hi: hi}
}

func (iv Interval) String() string { return fmt.Sprintf("[%d, %d]", iv.Lo, iv.Hi) }

// Contact is one contact c = {A, B} with its validity interval (§3.1).
// A < B always. Two contacts between the same objects with disjoint
// validity intervals are distinct contacts, matching the paper's Figure 1
// (c1 and c4 share objects but are separate contacts).
//
// Weight and Dur are the optional per-contact sidecar of the filtered
// propagation extension (§7): Weight is the minimal pair distance observed
// over the contact's validity at extraction time (0 when the producer had
// no positions — incremental builders and event replays see only pair
// sets), and Dur preserves the length of the contact's original validity
// across Window clipping, so a min-duration predicate evaluated inside one
// time slab still sees the full contact, not the slab-local residual. A
// zero Dur means "Validity is the full validity"; use Duration to read the
// effective value.
type Contact struct {
	A, B     trajectory.ObjectID
	Validity Interval
	Weight   float32
	Dur      int32
}

// Duration returns the length in ticks of the contact's original validity:
// Dur when a Window split recorded it, the (unclipped) validity length
// otherwise.
func (c Contact) Duration() int32 {
	if c.Dur > 0 {
		return c.Dur
	}
	return int32(c.Validity.Len())
}

// Network is the contact network C of a dataset over the ticks [0, NumTicks).
type Network struct {
	NumObjects int
	NumTicks   int
	// Contacts is sorted by Validity.Lo, then A, then B.
	Contacts []Contact
	// pairsPerTick[t] counts the contacts active at tick t (used for TEN
	// statistics).
	pairsPerTick []int32
}

// Extract builds the contact network of d over all its ticks by sweeping a
// per-instant grid-hash join over time and merging consecutive co-location
// instants into validity intervals (the window trajectory self-join
// R(T) ⋈_dT R(T) of §4). Blocks of ticks are joined in parallel, one
// Joiner per worker, and the Builder stitches their pairs in tick order, so
// the network does not depend on the number of workers.
func Extract(d *trajectory.Dataset) *Network { return extract(d, par.Workers()) }

// extractGrain is the number of ticks in a block of joins; a dataset of
// fewer ticks is joined on the caller's goroutine.
const extractGrain = 32

func extract(d *trajectory.Dataset, workers int) *Network {
	numTicks := d.NumTicks()
	blocks := par.Split(numTicks, extractGrain)
	joiners := make([]*tickJoiner, workers)
	joined := make([]tickBlock, blocks)
	b := NewBuilder(d.NumObjects())
	par.Blocks(workers, blocks, func(w, i int) {
		if joiners[w] == nil {
			joiners[w] = newTickJoiner(d)
		}
		lo, hi := i*numTicks/blocks, (i+1)*numTicks/blocks
		joined[i] = joiners[w].join(trajectory.Tick(lo), trajectory.Tick(hi))
	}, func(i int) {
		blk := joined[i]
		for k := 0; k+1 < len(blk.ends); k++ {
			b.addInstant(blk.samples[blk.ends[k]:blk.ends[k+1]])
		}
		joined[i] = tickBlock{}
	})
	return b.network(b.closed, b.pairsPerTick)
}

// tickBlock holds the pairs met at consecutive ticks: those of the k-th
// tick are samples[ends[k]:ends[k+1]], sorted by pair, nearest first.
type tickBlock struct {
	samples []sample
	ends    []int32
}

// tickJoiner is one worker's scratch for joining ticks of a dataset.
type tickJoiner struct {
	d   *trajectory.Dataset
	j   *stjoin.Joiner
	pts []geo.Point
	ids []trajectory.ObjectID
}

func newTickJoiner(d *trajectory.Dataset) *tickJoiner {
	return &tickJoiner{
		d:   d,
		j:   stjoin.NewJoiner(d.Env, d.ContactDist),
		pts: make([]geo.Point, 0, d.NumObjects()),
		ids: make([]trajectory.ObjectID, 0, d.NumObjects()),
	}
}

// join returns the pairs within contact range at each tick of [lo, hi).
func (tj *tickJoiner) join(lo, hi trajectory.Tick) tickBlock {
	blk := tickBlock{ends: make([]int32, 1, hi-lo+1)}
	for t := lo; t < hi; t++ {
		pts, ids := tj.pts[:0], tj.ids[:0]
		for i := range tj.d.Trajs {
			tr := &tj.d.Trajs[i]
			if k := int(t - tr.Start); k >= 0 && k < len(tr.Pos) { // tr covers t
				pts = append(pts, tr.Pos[k])
				ids = append(ids, tr.Object)
			}
		}
		from := len(blk.samples)
		tj.j.Join(pts, func(a, b int) bool {
			blk.samples = append(blk.samples, sample{
				pr:   stjoin.MakePair(ids[a], ids[b]),
				dist: float32(pts[a].Dist(pts[b])),
			})
			return true
		})
		slices.SortFunc(blk.samples[from:], compareSamplesByDist)
		blk.ends = append(blk.ends, int32(len(blk.samples)))
		tj.pts, tj.ids = pts, ids
	}
	return blk
}

// compareSamplesByDist orders samples by pair, then nearest first, so that
// the first of equal pairs carries their closest approach.
func compareSamplesByDist(x, y sample) int {
	if c := comparePairs(x.pr, y.pr); c != 0 {
		return c
	}
	return cmp.Compare(x.dist, y.dist)
}

func (n *Network) sortContacts() {
	sort.Slice(n.Contacts, func(i, k int) bool { return compareContacts(n.Contacts[i], n.Contacts[k]) < 0 })
}

// compareContacts orders contacts by Validity.Lo, then A, then B.
func compareContacts(x, y Contact) int {
	if c := cmp.Compare(x.Validity.Lo, y.Validity.Lo); c != 0 {
		return c
	}
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	return cmp.Compare(x.B, y.B)
}

// FromContacts builds a Network directly from a contact list (used by tests
// and by the non-immediate extension, which synthesizes contacts rather than
// extracting them from trajectories). Contacts are copied and normalized.
func FromContacts(numObjects, numTicks int, contacts []Contact) *Network {
	net := &Network{
		NumObjects:   numObjects,
		NumTicks:     numTicks,
		pairsPerTick: make([]int32, numTicks),
	}
	for _, c := range contacts {
		if c.A > c.B {
			c.A, c.B = c.B, c.A
		}
		if c.Validity.Len() == 0 {
			continue
		}
		net.Contacts = append(net.Contacts, c)
		for t := c.Validity.Lo; t <= c.Validity.Hi; t++ {
			if t >= 0 && int(t) < numTicks {
				net.pairsPerTick[t]++
			}
		}
	}
	net.sortContacts()
	return net
}

// Window returns the sub-network over the ticks [lo, hi], re-based so the
// window starts at tick 0. Contacts overlapping the window are clipped to
// it; a contact spanning a window boundary therefore appears (split) in
// both adjacent windows, which preserves per-instant contact semantics —
// propagation over the window equals propagation over the same instants of
// the full network. This is the extraction primitive behind time-sliced
// index segments: each slab indexes Window(slabLo, slabHi).
func (n *Network) Window(lo, hi trajectory.Tick) *Network {
	if lo < 0 {
		lo = 0
	}
	if int(hi) >= n.NumTicks {
		hi = trajectory.Tick(n.NumTicks) - 1
	}
	if hi < lo {
		return &Network{NumObjects: n.NumObjects}
	}
	w := &Network{
		NumObjects:   n.NumObjects,
		NumTicks:     int(hi-lo) + 1,
		pairsPerTick: append([]int32(nil), n.pairsPerTick[lo:hi+1]...),
	}
	span := Interval{Lo: lo, Hi: hi}
	for _, c := range n.Contacts {
		v := c.Validity.Intersect(span)
		if v.Len() == 0 {
			continue
		}
		// A clipped contact records its original full duration so slab-local
		// predicate evaluation (min-duration filters) stays exact.
		dur := c.Dur
		if dur == 0 && v.Len() != c.Validity.Len() {
			dur = int32(c.Validity.Len())
		}
		w.Contacts = append(w.Contacts, Contact{
			A: c.A, B: c.B,
			Validity: Interval{Lo: v.Lo - lo, Hi: v.Hi - lo},
			Weight:   c.Weight,
			Dur:      dur,
		})
	}
	w.sortContacts()
	return w
}

// Filter returns the sub-network of the contacts satisfying keep — the
// projection primitive of predicate-filtered reachability: because a
// per-contact predicate depends only on the contact record, filtered
// propagation over n equals plain propagation over n.Filter(keep), so any
// exact evaluator becomes an exact filtered evaluator by running over the
// projection. The tick domain and object space are unchanged.
func (n *Network) Filter(keep func(Contact) bool) *Network {
	kept := make([]Contact, 0, len(n.Contacts))
	for _, c := range n.Contacts {
		if keep(c) {
			kept = append(kept, c)
		}
	}
	return FromContacts(n.NumObjects, n.NumTicks, kept)
}

// Snapshot visits every tick in [lo, hi] in increasing order with the set of
// contact pairs active at that tick (the edge set of G_t). The pairs slice
// is reused between calls; callers must not retain it. Returning false from
// visit stops the sweep.
func (n *Network) Snapshot(lo, hi trajectory.Tick, visit func(t trajectory.Tick, pairs []stjoin.Pair) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi >= trajectory.Tick(n.NumTicks) {
		hi = trajectory.Tick(n.NumTicks) - 1
	}
	if hi < lo {
		return
	}
	// Contacts are sorted by Validity.Lo: maintain an active list while
	// sweeping t. Start by locating the first contact that could overlap.
	var active []Contact
	idx := 0
	for ; idx < len(n.Contacts); idx++ {
		c := n.Contacts[idx]
		if c.Validity.Lo >= lo {
			break
		}
		if c.Validity.Hi >= lo {
			active = append(active, c)
		}
	}
	pairs := make([]stjoin.Pair, 0, 64)
	for t := lo; t <= hi; t++ {
		for idx < len(n.Contacts) && n.Contacts[idx].Validity.Lo == t {
			active = append(active, n.Contacts[idx])
			idx++
		}
		pairs = pairs[:0]
		w := 0
		for _, c := range active {
			if c.Validity.Hi >= t {
				active[w] = c
				w++
				pairs = append(pairs, stjoin.Pair{A: c.A, B: c.B})
			}
		}
		active = active[:w]
		if !visit(t, pairs) {
			return
		}
	}
}

// PairsAt returns a fresh slice of the contact pairs active at tick t.
func (n *Network) PairsAt(t trajectory.Tick) []stjoin.Pair {
	var out []stjoin.Pair
	n.Snapshot(t, t, func(_ trajectory.Tick, pairs []stjoin.Pair) bool {
		out = append([]stjoin.Pair(nil), pairs...)
		return true
	})
	return out
}

// NumContacts returns |C|.
func (n *Network) NumContacts() int { return len(n.Contacts) }

// ContactInstants returns the total number of (pair, tick) co-location
// instants, i.e. the number of contact edges in the TEN model.
func (n *Network) ContactInstants() int64 {
	var total int64
	for _, c := range n.pairsPerTick {
		total += int64(c)
	}
	return total
}

// TENStats describes the size of the Time Expanded Network representation
// of the contact network (§5.1.1): one vertex per object per instant,
// holding edges between consecutive instants of the same object, and one
// contact edge per co-location instant.
type TENStats struct {
	Vertices int64
	Edges    int64
}

// TEN returns the TEN model size, the "CN" baseline that §6.2.1.1 compares
// the reduced graph DN against.
func (n *Network) TEN() TENStats {
	v := int64(n.NumObjects) * int64(n.NumTicks)
	holding := int64(n.NumObjects) * int64(n.NumTicks-1)
	if n.NumTicks == 0 {
		holding = 0
	}
	return TENStats{
		Vertices: v,
		Edges:    holding + n.ContactInstants(),
	}
}
