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
//     mutable in-memory tail segment (an incremental contact.Builder over
//     the current slab only); when the tail's slab closes it is sealed —
//     flushed through a build callback into an immutable per-slab value
//     (typically a disk-resident index segment) — and a fresh tail opens.
//     Appends therefore cost O(instant) and never rebuild history, and
//     queries see sealed segments plus a snapshot of the small tail.
//
// Real feeds are not append-only, so each sealed slab also carries a
// delta log: late contact events and retractions targeting an already-
// sealed tick are buffered against the slab as an effective overlay
// network, which readers consult instead of the (now stale) sealed value.
// Answers are exact immediately; the sealed index itself is only rebuilt
// when a compaction pass (manual Compact or a per-ingest threshold) folds
// the deltas in through the same build callback and swaps the value under
// the log's mutex, invisible to in-flight readers holding a View.
//
// Log is safe for one appender running concurrently with any number of
// readers: sealed values and overlay networks are immutable once published
// and View hands out consistent snapshots.
package segment

import (
	"fmt"
	"sort"
	"sync"

	"streach/internal/contact"
	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// DefaultWidth is the slab width used when a caller passes no explicit
// width: wide enough that typical query intervals (the paper's 150-350
// instants) span only a few slabs, narrow enough that a tail rebuild or a
// single slab index stays small.
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
// events are the effective late/retraction events accepted since, and
// patched is base with events folded in (nil when the slab is clean). A
// compaction rebuilds the sealed value from patched and resets the delta.
type slabDelta struct {
	base    *contact.Network
	patched *contact.Network
	events  []contact.Event
}

// Counters are the log's cumulative ingest-anomaly and maintenance
// counters, monotone over the log's lifetime.
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
// pending against the slab, Overlay is the slab-local network with those
// events folded in — the sealed Value is stale and the reader must answer
// from Overlay instead; Pending is the delta-log depth. A clean slab has a
// nil Overlay.
type SlabView[S any] struct {
	Span    contact.Interval
	Value   S
	Overlay *contact.Network
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

	mu        sync.Mutex
	sealed    []Sealed[S]
	deltas    []slabDelta      // parallel to sealed
	tail      *contact.Builder // slab-local: tick 0 of the builder is tailStart
	tailStart trajectory.Tick
	tailNet   *contact.Network // cached raw tail snapshot, nil when dirty
	// Late events within the tail's span cannot be inserted into the
	// append-only Builder, so they overlay it just like a slab delta:
	// tailPatched caches tailNet with tailEvents folded in. The overlay is
	// absorbed at seal time — slabs are born clean.
	tailEvents  []contact.Event
	tailPatched *contact.Network
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
		tail:       contact.NewBuilder(numObjects),
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
// slab if the append closed it — its local network is flushed through the
// build callback and a fresh tail opens — accumulating the outcome into
// res; res.Sealed gains the sealed slab's global tick interval (callers
// invalidating derived state — query caches, watchers — key off it).
// applied is the number of distinct contact pairs at the new instant. A
// build error leaves the tail un-sealed — the instant itself is retained
// and the time axis stays intact — and is returned to the appender; the
// next append retries the seal over the (now wider) tail, so a transient
// build failure merely widens that one sealed slab.
func (l *Log[S]) appendInstantLocked(pairs []stjoin.Pair, res *ApplyResult) (applied int, err error) {
	t := l.tailStart + trajectory.Tick(l.tail.NumTicks())
	l.tail.AddInstant(pairs)
	applied = l.tail.ActivePairs()
	l.tailNet, l.tailPatched, l.fullNet = nil, nil, nil
	res.Changed = appendChangedTick(res.Changed, t)
	if l.tail.NumTicks() < l.width {
		return applied, nil
	}
	// Seal the whole tail — with any late events already folded in, so the
	// slab is born clean. Normally that is exactly one slab; after a failed
	// build it can be wider — the span always matches the sealed network,
	// so the planner's slab walk stays exact.
	net := l.tailEffectiveLocked()
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
	l.tail = contact.NewBuilder(l.numObjects)
	l.tailEvents, l.tailNet, l.tailPatched = nil, nil, nil
	res.Sealed = append(res.Sealed, span)
	return applied, nil
}

// IngestEvents folds a batch of contact events — frontier appends, late
// adds, retractions, in any tick order — into the log. When
// compactThreshold > 0, any slab whose delta log reaches that depth is
// re-sealed before returning. An error (a failed seal or compaction
// build) may leave the batch partially applied; the returned ApplyResult
// reflects exactly what was applied, and the log remains consistent —
// dirty slabs keep answering exactly through their overlays.
func (l *Log[S]) IngestEvents(events []contact.Event, compactThreshold int) (ApplyResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var res ApplyResult
	if len(events) == 0 {
		return res, nil
	}

	// Fast path: the common in-order feed — every event an add at the
	// frontier tick — is a single Builder append, no sorting or grouping.
	frontier := trajectory.Tick(l.numTicksLocked())
	fast := true
	for _, ev := range events {
		if ev.Retract || ev.Tick != frontier {
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

	sorted := make([]contact.Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Tick < sorted[j].Tick })
	var err error
	for i := 0; i < len(sorted) && err == nil; {
		j := i
		for j < len(sorted) && sorted[j].Tick == sorted[i].Tick {
			j++
		}
		t, group := sorted[i].Tick, sorted[i:j]
		switch {
		case int(t) >= l.numTicksLocked():
			err = l.applyFrontierGroupLocked(t, group, &res)
		case t >= l.tailStart:
			l.applyTailLateLocked(t, group, &res)
		default:
			l.applySlabLateLocked(t, group, &res)
		}
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
	for _, ev := range group {
		pr := stjoin.MakePair(ev.A, ev.B)
		switch {
		case !ev.Retract && set[pr]:
			res.Duplicates++
		case !ev.Retract:
			set[pr] = true
			anyAdd = true
			res.Frontier++
		case set[pr]:
			delete(set, pr)
			res.Retracted++
		default:
			res.RetractMisses++
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

// applyTailLateLocked applies one tick's worth of late events landing in
// the mutable tail's span by extending the tail overlay.
func (l *Log[S]) applyTailLateLocked(t trajectory.Tick, group []contact.Event, res *ApplyResult) {
	local := make([]contact.Event, len(group))
	for i, ev := range group {
		ev.Tick -= l.tailStart
		local[i] = ev
	}
	patched, kept, counts := l.tailEffectiveLocked().ApplyEvents(local)
	res.Late += counts.Applied
	res.Retracted += counts.Retracted
	res.Duplicates += counts.Duplicates
	res.RetractMisses += counts.Misses
	if len(kept) == 0 {
		return
	}
	l.tailEvents = append(l.tailEvents, kept...)
	l.tailPatched = patched
	l.fullNet = nil
	res.Changed = appendChangedTick(res.Changed, t)
}

// applySlabLateLocked applies one tick's worth of late events landing in a
// sealed slab by extending that slab's delta log and overlay.
func (l *Log[S]) applySlabLateLocked(t trajectory.Tick, group []contact.Event, res *ApplyResult) {
	i := sort.Search(len(l.sealed), func(i int) bool { return l.sealed[i].Span.Hi >= t })
	d := &l.deltas[i]
	span := l.sealed[i].Span
	local := make([]contact.Event, len(group))
	for k, ev := range group {
		ev.Tick -= span.Lo
		local[k] = ev
	}
	base := d.patched
	if base == nil {
		base = d.base
	}
	patched, kept, counts := base.ApplyEvents(local)
	res.Late += counts.Applied
	res.Retracted += counts.Retracted
	res.Duplicates += counts.Duplicates
	res.RetractMisses += counts.Misses
	if len(kept) == 0 {
		return
	}
	d.patched = patched
	d.events = append(d.events, kept...)
	l.fullNet = nil
	res.Changed = appendChangedTick(res.Changed, t)
}

// Compact re-seals every dirty slab: each overlay network is flushed
// through the build callback and the sealed value swapped in place under
// the log's mutex — in-flight readers keep their (still-correct) overlay
// views; new Views see the clean rebuilt slab. Returns the number of slabs
// compacted. On a build error the failing slab keeps its delta log and
// stays exact through its overlay; already-compacted slabs stay compacted.
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
		if len(d.events) == 0 || len(d.events) < threshold {
			continue
		}
		value, err := l.build(l.sealed[i].Span, d.patched)
		if err != nil {
			return n, fmt.Errorf("segment: compact slab %v: %w", l.sealed[i].Span, err)
		}
		l.sealed[i].Value = value
		d.base, d.patched, d.events = d.patched, nil, nil
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
	var net *contact.Network
	var local trajectory.Tick
	if t >= l.tailStart {
		net, local = l.tailEffectiveLocked(), t-l.tailStart
	} else {
		i := sort.Search(len(l.sealed), func(i int) bool { return l.sealed[i].Span.Hi >= t })
		if net = l.deltas[i].patched; net == nil {
			net = l.deltas[i].base
		}
		local = t - l.sealed[i].Span.Lo
	}
	for _, q := range net.PairsAt(local) {
		if q == pr {
			return true
		}
	}
	return false
}

// tailEffectiveLocked returns the tail's slab-local network with any
// pending tail-late events folded in, caching both layers.
func (l *Log[S]) tailEffectiveLocked() *contact.Network {
	if l.tailNet == nil {
		l.tailNet = l.tail.Network()
	}
	if len(l.tailEvents) == 0 {
		return l.tailNet
	}
	if l.tailPatched == nil {
		l.tailPatched, _, _ = l.tailNet.ApplyEvents(l.tailEvents)
	}
	return l.tailPatched
}

// View returns a consistent snapshot for one query: the sealed segments
// (with delta overlays where slabs are dirty), the tail's span and
// slab-local effective network (nil when the tail is empty), and the total
// tick count. The returned slice is the reader's own; slab values and
// networks are immutable — the reader may use them lock-free for the whole
// query even across a concurrent compaction.
func (l *Log[S]) View() (slabs []SlabView[S], tailSpan contact.Interval, tailNet *contact.Network, numTicks int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	numTicks = l.numTicksLocked()
	slabs = make([]SlabView[S], len(l.sealed))
	for i, s := range l.sealed {
		slabs[i] = SlabView[S]{Span: s.Span, Value: s.Value}
		if d := &l.deltas[i]; len(d.events) > 0 {
			slabs[i].Overlay = d.patched
			slabs[i].Pending = len(d.events)
		}
	}
	if l.tail.NumTicks() > 0 {
		tailNet = l.tailEffectiveLocked()
		tailSpan = contact.Interval{
			Lo: l.tailStart,
			Hi: l.tailStart + trajectory.Tick(l.tail.NumTicks()) - 1,
		}
	}
	return slabs, tailSpan, tailNet, numTicks
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
	for i, s := range l.sealed {
		net := l.deltas[i].patched
		if net == nil {
			net = l.deltas[i].base
		}
		for _, c := range net.Contacts {
			c.Validity.Lo += s.Span.Lo
			c.Validity.Hi += s.Span.Lo
			all = append(all, c)
		}
	}
	if l.tail.NumTicks() > 0 {
		for _, c := range l.tailEffectiveLocked().Contacts {
			c.Validity.Lo += l.tailStart
			c.Validity.Hi += l.tailStart
			all = append(all, c)
		}
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
