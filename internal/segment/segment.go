// Package segment partitions the time axis of a contact dataset into
// fixed-width slabs, the substrate of the time-sliced index architecture:
// every slab carries its own (immutable, independently built) index segment
// and a query walks only the segments overlapping its interval, carrying
// the reachable frontier from slab to slab.
//
// The package has two halves:
//
//   - Layout is pure slab arithmetic — how many slabs cover the domain and
//     what span each covers. Batch segmentation (splitting a frozen
//     dataset) is Layout plus contact.Network.Window /
//     trajectory.Dataset.Window.
//   - Log is the streaming half, shaped like an LSM tree: appends go to one
//     mutable in-memory tail segment, a per-instant pair table
//     (contact.PairTable) over the current slab only; when the tail's slab
//     closes it is sealed — materialized once and flushed through a build
//     callback into an immutable per-slab value (typically a disk-resident
//     index segment) — and a fresh tail opens. Appends therefore cost
//     O(instant) and never rebuild history, and queries see sealed
//     segments plus the tail's table as it stands.
//
// Real feeds are not append-only, so each sealed slab also carries a
// delta log: late contact events and retractions targeting an already-
// sealed tick turn the slab dirty, and its overlay — the slab's pair table
// with the events folded in — is what readers consult instead of the (now
// stale) sealed value. A late batch copies each touched slab's table once
// and replaces only the lists of the instants it changes (copy-on-write),
// so a patch costs the instants it lands on, not the slab around them.
// Answers are exact immediately; the sealed index itself is only rebuilt
// when a compaction pass (manual Compact or a per-ingest threshold) folds
// the deltas in through the same build callback and swaps the value under
// the log's mutex, invisible to in-flight readers holding a View.
//
// Log is safe for one appender running concurrently with any number of
// readers: sealed values and pair tables are immutable once published, and
// View hands out their current headers without building anything.
package segment

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"streach/internal/contact"
	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// DefaultWidth is the slab width used when a caller passes no explicit
// width: wide enough that typical query intervals (the paper's 150-350
// instants) span only a few slabs, narrow enough that a seal or a single
// slab index stays small.
const DefaultWidth = 128

// Width returns w defaulted.
func Width(w int) int {
	if w <= 0 {
		return DefaultWidth
	}
	return w
}

// Layout describes the slab partitioning of a time domain: slab i covers
// ticks [i*Width, (i+1)*Width) intersected with [0, NumTicks). The final
// slab may be partial.
type Layout struct {
	Width    int
	NumTicks int
}

// NewLayout returns the layout of numTicks instants in slabs of width
// ticks (defaulted via Width).
func NewLayout(width, numTicks int) Layout {
	return Layout{Width: Width(width), NumTicks: numTicks}
}

// NumSlabs returns the number of slabs covering the time domain.
func (l Layout) NumSlabs() int {
	if l.NumTicks <= 0 {
		return 0
	}
	return (l.NumTicks + l.Width - 1) / l.Width
}

// Span returns the tick interval of slab i, clipped to the time domain.
func (l Layout) Span(i int) contact.Interval {
	lo := trajectory.Tick(i * l.Width)
	hi := lo + trajectory.Tick(l.Width) - 1
	if int(hi) >= l.NumTicks {
		hi = trajectory.Tick(l.NumTicks - 1)
	}
	return contact.Interval{Lo: lo, Hi: hi}
}

// Sealed is one immutable sealed segment: the slab's global tick span plus
// the value the build callback produced for it (an index, an engine core,
// a plain network — whatever the caller segments into).
type Sealed[S any] struct {
	Span  contact.Interval
	Value S
}

// BuildFunc flushes one closed slab into its sealed value. span is the
// slab's global tick interval; net is the slab-local contact network (its
// ticks re-based to [0, span.Len())). Builds run under the log's lock —
// appends and seals are serialized with each other, never with readers.
type BuildFunc[S any] func(span contact.Interval, net *contact.Network) (S, error)

// slabDelta is the mutable correction state riding alongside one sealed
// segment. base is the slab-local network the sealed value was built from;
// table is base's pair table with the pending events folded in (nil while
// the slab is clean, so a clean slab holds its network alone), and pending
// counts those events. A compaction rebuilds the sealed value from table
// and resets the delta.
type slabDelta struct {
	base    *contact.Network
	table   *contact.PairTable
	pending int
}

// Counters are the log's cumulative ingest-anomaly and maintenance
// counters, monotone over the log's lifetime. Mirrored events are not
// counted.
type Counters struct {
	// LateApplied counts contact adds accepted at a tick behind the
	// frontier; Retractions counts removals of previously live instants.
	LateApplied, Retractions int64
	// Duplicates counts adds of already-present contact instants;
	// RetractMisses counts retractions that matched nothing.
	Duplicates, RetractMisses int64
	// Compactions counts dirty slabs rebuilt through the build callback.
	Compactions int64
}

// SlabView is one sealed segment as seen by a reader. When late events are
// pending against the slab, Overlay is the slab-local pair table with those
// events folded in — the sealed Value is stale and the reader must answer
// from Overlay instead; Pending is the delta-log depth. A clean slab has a
// nil Overlay.
type SlabView[S any] struct {
	Span    contact.Interval
	Value   S
	Overlay *contact.PairTable
	Pending int
}

// ApplyResult reports what one ingest batch did to the log.
type ApplyResult struct {
	// Frontier counts contact instants applied at (or beyond) the
	// frontier; Late counts instants applied behind it.
	Frontier, Late int
	// Retracted, Duplicates and RetractMisses mirror the Counters fields,
	// scoped to this batch.
	Retracted, Duplicates, RetractMisses int
	// Sealed lists the spans of slabs sealed by this batch, Changed the
	// (merged, ascending) tick intervals whose contact content changed —
	// the invalidation set for any cache derived from query answers.
	Sealed, Changed []contact.Interval
	// Compacted counts slabs re-sealed by the batch's threshold policy.
	Compacted int
}

// Log is the streaming segment log: sealed (immutable) segments plus one
// mutable tail absorbing appends, sealed LSM-style when its slab closes,
// with per-slab delta logs buffering out-of-order corrections.
type Log[S any] struct {
	numObjects int
	width      int
	build      BuildFunc[S]

	mu     sync.Mutex
	sealed []Sealed[S]
	deltas []slabDelta // parallel to sealed
	// tail is the open slab's table, late events included (they are
	// absorbed at seal time, so slabs are born clean); its tick 0 is
	// tailStart.
	tail        *contact.PairTable
	tailStart   trajectory.Tick
	fullNet     *contact.Network // cached Snapshot, nil when dirty
	pairScratch []stjoin.Pair
	counters    Counters
}

// NewLog returns an empty log for numObjects objects with the given slab
// width (defaulted via Width); build flushes each closed slab.
func NewLog[S any](numObjects, width int, build BuildFunc[S]) *Log[S] {
	return &Log[S]{
		numObjects: numObjects,
		width:      Width(width),
		build:      build,
		tail:       contact.NewPairTable(numObjects),
	}
}

// NumTicks returns the number of instants appended so far.
func (l *Log[S]) NumTicks() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.numTicksLocked()
}

func (l *Log[S]) numTicksLocked() int {
	return int(l.tailStart) + l.tail.NumTicks()
}

// NumSealed returns the number of sealed segments.
func (l *Log[S]) NumSealed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed)
}

// Counters returns the cumulative ingest/maintenance counters.
func (l *Log[S]) Counters() Counters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counters
}

// AdvanceTo pads the time domain with empty instants until it holds at
// least numTicks instants — the clock half of ingestion, decoupled from
// contact arrival so a quiet feed still moves the frontier.
func (l *Log[S]) AdvanceTo(numTicks int) (ApplyResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var res ApplyResult
	for l.numTicksLocked() < numTicks {
		if _, err := l.appendInstantLocked(nil, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// appendInstantLocked appends one frontier instant and seals the tail's
// slab if the append closed it — its table is materialized once and flushed
// through the build callback and a fresh tail opens — accumulating the
// outcome into res; res.Sealed gains the sealed slab's global tick interval
// (callers invalidating derived state — query caches, watchers — key off
// it). applied is the number of distinct contact pairs at the new instant.
// A build error leaves the tail un-sealed — the instant itself is retained
// and the time axis stays intact — and is returned to the appender; the
// next append retries the seal over the (now wider) tail, so a transient
// build failure merely widens that one sealed slab.
func (l *Log[S]) appendInstantLocked(pairs []stjoin.Pair, res *ApplyResult) (applied int, err error) {
	t := l.tailStart + trajectory.Tick(l.tail.NumTicks())
	l.tail, applied = l.tail.Append(pairs)
	l.fullNet = nil
	res.Changed = appendChangedTick(res.Changed, t)
	if l.tail.NumTicks() < l.width {
		return applied, nil
	}
	// Seal the whole tail. Normally that is exactly one slab; after a
	// failed build it can be wider — the span always matches the sealed
	// network, so the planner's slab walk stays exact.
	net := l.tail.Network()
	span := contact.Interval{
		Lo: l.tailStart,
		Hi: l.tailStart + trajectory.Tick(net.NumTicks) - 1,
	}
	value, err := l.build(span, net)
	if err != nil {
		return applied, fmt.Errorf("segment: seal slab %v: %w", span, err)
	}
	l.sealed = append(l.sealed, Sealed[S]{Span: span, Value: value})
	l.deltas = append(l.deltas, slabDelta{base: net})
	l.tailStart += trajectory.Tick(net.NumTicks)
	l.tail = contact.NewPairTable(l.numObjects)
	res.Sealed = append(res.Sealed, span)
	return applied, nil
}

// IngestEvents folds a batch of contact events — frontier appends, late
// adds, retractions, in any tick order — into the log. When
// compactThreshold > 0, any slab whose delta log reaches that depth is
// re-sealed before returning. An error (a failed seal or compaction
// build) may leave the batch partially applied; the returned ApplyResult
// reflects exactly what was applied, and the log remains consistent —
// dirty slabs keep answering exactly through their overlays. Mirrored
// events (contact.Event.Mirror) change the log like any other but are left
// out of the result's counts and the Counters; they still mark their ticks
// Changed and deepen a sealed slab's delta log.
func (l *Log[S]) IngestEvents(events []contact.Event, compactThreshold int) (ApplyResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var res ApplyResult
	if len(events) == 0 {
		return res, nil
	}

	// Fast path: the common in-order feed — every event an unmirrored add
	// at the frontier tick — is a single table append, no grouping.
	frontier := trajectory.Tick(l.numTicksLocked())
	fast := true
	for _, ev := range events {
		if ev.Retract || ev.Mirror || ev.Tick != frontier {
			fast = false
			break
		}
	}
	if fast {
		l.pairScratch = l.pairScratch[:0]
		for _, ev := range events {
			l.pairScratch = append(l.pairScratch, stjoin.MakePair(ev.A, ev.B))
		}
		applied, err := l.appendInstantLocked(l.pairScratch, &res)
		res.Frontier = applied
		res.Duplicates = len(events) - applied
		l.counters.Duplicates += int64(res.Duplicates)
		return res, err
	}

	// Late events — every tick behind the frontier — land first, all
	// against the current slabs; the frontier groups then extend the time
	// domain in tick order, so res.Changed stays ascending.
	sorted := slices.Clone(events)
	slices.SortStableFunc(sorted, func(x, y contact.Event) int { return cmp.Compare(x.Tick, y.Tick) })
	late, _ := slices.BinarySearchFunc(sorted, frontier, func(ev contact.Event, t trajectory.Tick) int {
		return cmp.Compare(ev.Tick, t)
	})
	l.applyLateLocked(sorted[:late], &res)
	var err error
	for i := late; i < len(sorted) && err == nil; {
		j := i
		for j < len(sorted) && sorted[j].Tick == sorted[i].Tick {
			j++
		}
		err = l.applyFrontierGroupLocked(sorted[i].Tick, sorted[i:j], &res)
		i = j
	}
	l.counters.LateApplied += int64(res.Late)
	l.counters.Retractions += int64(res.Retracted)
	l.counters.Duplicates += int64(res.Duplicates)
	l.counters.RetractMisses += int64(res.RetractMisses)
	if err != nil {
		return res, err
	}
	if compactThreshold > 0 {
		n, cerr := l.compactLocked(compactThreshold)
		res.Compacted = n
		err = cerr
	}
	return res, err
}

// applyFrontierGroupLocked applies one tick's worth of events at or beyond
// the frontier: the time domain is padded with empty instants up to t,
// then the group's surviving pair set becomes instant t. Pure-retraction
// groups are all misses and never advance the clock.
func (l *Log[S]) applyFrontierGroupLocked(t trajectory.Tick, group []contact.Event, res *ApplyResult) error {
	set := make(map[stjoin.Pair]bool, len(group))
	anyAdd := false
	var mirrored ApplyResult
	for _, ev := range group {
		pr := stjoin.MakePair(ev.A, ev.B)
		tally := res
		if ev.Mirror {
			tally = &mirrored
		}
		switch {
		case !ev.Retract && set[pr]:
			tally.Duplicates++
		case !ev.Retract:
			set[pr] = true
			anyAdd = true
			tally.Frontier++
		case set[pr]:
			delete(set, pr)
			tally.Retracted++
		default:
			tally.RetractMisses++
		}
	}
	if !anyAdd {
		return nil
	}
	for trajectory.Tick(l.numTicksLocked()) < t {
		if _, err := l.appendInstantLocked(nil, res); err != nil {
			return err
		}
	}
	l.pairScratch = l.pairScratch[:0]
	for pr := range set {
		l.pairScratch = append(l.pairScratch, pr)
	}
	_, err := l.appendInstantLocked(l.pairScratch, res)
	return err
}

// applyLateLocked applies the events behind the frontier (sorted by tick)
// slab by slab: each touched slab's table — the tail's, or a sealed slab's
// overlay, derived from its base network when the slab was clean — is
// patched once, and the patch is published only if some event took effect.
func (l *Log[S]) applyLateLocked(events []contact.Event, res *ApplyResult) {
	for i := 0; i < len(events); {
		t := events[i].Tick
		k := sort.Search(len(l.sealed), func(k int) bool { return l.sealed[k].Span.Hi >= t })
		span := contact.Interval{Lo: l.tailStart, Hi: trajectory.Tick(l.numTicksLocked()) - 1}
		var table *contact.PairTable
		if k < len(l.sealed) {
			span, table = l.sealed[k].Span, l.deltas[k].table
			if table == nil {
				table = contact.TableOf(l.deltas[k].base)
			}
		} else {
			table = l.tail
		}
		j := i
		for j < len(events) && events[j].Tick <= span.Hi {
			j++
		}
		local := slices.Clone(events[i:j])
		for n := range local {
			local[n].Tick -= span.Lo
		}
		i = j

		patched, kept, counts := table.Apply(local)
		res.Late += counts.Applied
		res.Retracted += counts.Retracted
		res.Duplicates += counts.Duplicates
		res.RetractMisses += counts.Misses
		if len(kept) == 0 {
			continue
		}
		if k < len(l.sealed) {
			l.deltas[k].table = patched
			l.deltas[k].pending += len(kept)
		} else {
			l.tail = patched
		}
		l.fullNet = nil
		for _, ev := range kept {
			res.Changed = appendChangedTick(res.Changed, ev.Tick+span.Lo)
		}
	}
}

// Compact re-seals every dirty slab: each overlay table is materialized
// and flushed through the build callback and the sealed value swapped in
// place under the log's mutex — in-flight readers keep their (still-
// correct) overlay views; new Views see the clean rebuilt slab. Returns the
// number of slabs compacted. On a build error the failing slab keeps its
// delta log and stays exact through its overlay; already-compacted slabs
// stay compacted.
func (l *Log[S]) Compact() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compactLocked(0)
}

// compactLocked re-seals dirty slabs whose delta depth is at least
// threshold (threshold <= 0 means every dirty slab).
func (l *Log[S]) compactLocked(threshold int) (int, error) {
	n := 0
	for i := range l.deltas {
		d := &l.deltas[i]
		if d.pending == 0 || d.pending < threshold {
			continue
		}
		net := d.table.Network()
		value, err := l.build(l.sealed[i].Span, net)
		if err != nil {
			return n, fmt.Errorf("segment: compact slab %v: %w", l.sealed[i].Span, err)
		}
		l.sealed[i].Value = value
		*d = slabDelta{base: net}
		l.counters.Compactions++
		n++
	}
	return n, nil
}

// ActiveAt reports whether the contact (a, b) is live at tick t in the
// log's current effective (delta-patched) state.
func (l *Log[S]) ActiveAt(a, b trajectory.ObjectID, t trajectory.Tick) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t < 0 || int(t) >= l.numTicksLocked() {
		return false
	}
	pr := stjoin.MakePair(a, b)
	if t >= l.tailStart {
		return l.tail.Has(pr, t-l.tailStart)
	}
	i := sort.Search(len(l.sealed), func(i int) bool { return l.sealed[i].Span.Hi >= t })
	local := t - l.sealed[i].Span.Lo
	if d := &l.deltas[i]; d.table != nil {
		return d.table.Has(pr, local)
	}
	return slices.Contains(l.deltas[i].base.PairsAt(local), pr)
}

// View returns a consistent snapshot for one query: the sealed segments
// (with overlay tables where slabs are dirty), the tail's span and table
// (nil when the tail is empty), and the total tick count. It builds
// nothing: the returned slice is the reader's own, and the slab values and
// tables it points to are immutable — the reader may use them lock-free for
// the whole query even across concurrent patches and compactions.
func (l *Log[S]) View() (slabs []SlabView[S], tailSpan contact.Interval, tail *contact.PairTable, numTicks int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	numTicks = l.numTicksLocked()
	slabs = make([]SlabView[S], len(l.sealed))
	for i, s := range l.sealed {
		slabs[i] = SlabView[S]{Span: s.Span, Value: s.Value}
		if d := &l.deltas[i]; d.pending > 0 {
			slabs[i].Overlay = d.table
			slabs[i].Pending = d.pending
		}
	}
	if l.tail.NumTicks() > 0 {
		tail = l.tail
		tailSpan = contact.Interval{
			Lo: l.tailStart,
			Hi: l.tailStart + trajectory.Tick(l.tail.NumTicks()) - 1,
		}
	}
	return slabs, tailSpan, tail, numTicks
}

// Snapshot returns the cumulative effective contact network over every
// instant appended so far — sealed slabs (delta-patched) concatenated with
// the tail — for validation against ground truth and whole-domain
// semantic evaluation. Contacts spanning slab boundaries appear split;
// per-instant content is identical to an unsegmented build.
func (l *Log[S]) Snapshot() *contact.Network {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fullNet != nil {
		return l.fullNet
	}
	var all []contact.Contact
	shifted := func(net *contact.Network, lo trajectory.Tick) {
		for _, c := range net.Contacts {
			c.Validity.Lo += lo
			c.Validity.Hi += lo
			all = append(all, c)
		}
	}
	for i, s := range l.sealed {
		net := l.deltas[i].base
		if tb := l.deltas[i].table; tb != nil {
			net = tb.Network()
		}
		shifted(net, s.Span.Lo)
	}
	if l.tail.NumTicks() > 0 {
		shifted(l.tail.Network(), l.tailStart)
	}
	l.fullNet = contact.FromContacts(l.numObjects, l.numTicksLocked(), all)
	return l.fullNet
}

// appendChangedTick extends ivs (kept merged and ascending — ticks arrive
// in ascending order within a batch) with tick t.
func appendChangedTick(ivs []contact.Interval, t trajectory.Tick) []contact.Interval {
	if n := len(ivs); n > 0 {
		last := &ivs[n-1]
		if t <= last.Hi {
			return ivs
		}
		if last.Hi+1 == t {
			last.Hi = t
			return ivs
		}
	}
	return append(ivs, contact.Interval{Lo: t, Hi: t})
}
