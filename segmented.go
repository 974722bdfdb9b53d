// Time-sliced index segments and the cross-segment query planner.
//
// A segmented backend ("segmented:<name>") splits the dataset's time axis
// into fixed-width slabs (Options.SegmentTicks) and builds one immutable
// index segment of the base backend per slab, all disk-resident segments
// drawing on one shared BufferPool. Queries are planned across segments:
// the planner walks only the slabs overlapping the query interval in time
// order, carrying the propagation state from slab to slab — every object
// reached so far seeds the next slab's sweep, with its arrival tick and, in
// hop-tracking mode, the transfers it has left — and short-circuits as soon
// as the destination is infected (or the context is cancelled). Correctness
// rests on the same per-instant propagation semantics the oracle executes:
// infection is monotone and Markovian in the per-object minimal hop counts,
// so propagation over [t1, t2] factors exactly into propagation over
// consecutive sub-intervals with who holds the item, since when and after
// how many transfers as the only carried state. The same walk run
// newest-first carries deliverer sets backward, for the bidirectional
// planner (bidir.go).
//
// The architecture exists for incremental ingestion (see LiveEngine): a
// new stretch of feed only ever adds segments, so historical slabs are
// never rebuilt. A LiveEngine query runs this planner over a pinned view of
// its segment log.

package streach

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/segment"
	"streach/internal/visit"
)

// sealedSlab is an index segment sealed from one time slab, with the I/O
// totals carried over from the segments a live compaction replaced at the
// same slab (their stores are gone; the engine's cumulative totals must
// not run backwards). The zero value is "no sealed index": a live tail.
type sealedSlab struct {
	core    core
	carried pagefile.Stats
}

func (s sealedSlab) disk() diskIO {
	var d diskIO
	if s.core != nil {
		d.merge(s.core.disk())
		d.carried.Add(s.carried)
	}
	return d
}

// segSlab is one time slab as the planner sees it: its global tick span and
// the core evaluating slab-local queries. sealed is the index segment the
// slab is accounted under; in a live view it differs from core while late
// events are pending against the slab — an oracle over the patched overlay
// answers instead of the stale index, pending being the delta-log depth —
// and is empty for the unsealed tail.
type segSlab struct {
	span    Interval
	core    core
	sealed  sealedSlab
	pending int
}

// walk is the propagation state a cross-segment plan carries from slab to
// slab, in global ticks: per reached object the tick it holds the item from
// (forward: earliest arrival; backward: latest departure) and, in
// hop-tracking mode, its minimal transfer count so far. Pooled package-wide
// — every segmented engine and LiveEngine query draws on the same pool —
// so a steady-state planner query allocates nothing.
type walk struct {
	spec       semSpec
	numObjects int
	hops       visit.Ticks
	at         visit.Ticks
	reached    []ObjectID
	seeds      []queries.SeedState
	buf        []queries.ProfileEntry
}

var walkPool = visit.NewPool(func() *walk { return new(walk) })

func (w *walk) reset(numObjects int, spec semSpec) {
	w.spec, w.numObjects = spec, numObjects
	w.hops.Reset(numObjects)
	w.at.Reset(numObjects)
	w.reached = w.reached[:0]
}

// admit records that o — a valid object — holds the item from tick at,
// after hops transfers.
func (w *walk) admit(o ObjectID, hops int32, at Tick) {
	if prev, ok := w.hops.Get(int(o)); !ok {
		w.hops.Set(int(o), hops)
		w.at.Set(int(o), int32(at))
		w.reached = append(w.reached, o)
	} else if hops < prev {
		w.hops.Set(int(o), hops)
	}
}

// has reports whether o is reached; false for queries.NoObject.
func (w *walk) has(o ObjectID) bool {
	if int(o) < 0 || int(o) >= w.numObjects {
		return false
	}
	_, ok := w.hops.Get(int(o))
	return ok
}

// meets reports whether the two walks share a reached object.
func (w *walk) meets(o *walk) bool {
	if len(o.reached) < len(w.reached) {
		w, o = o, w
	}
	for _, obj := range w.reached {
		if o.has(obj) {
			return true
		}
	}
	return false
}

// step carries the walk through one slab: every object holding the item by
// the slab's window seeds the slab's sweep — with its residual hop budget
// (budget minus the transfers already spent) in hop-tracking mode — and the
// slab-local profile is merged back into the global tables: ticks re-based
// to global keep their best value (forward the earliest arrival, backward
// the latest departure), hop counts their minimum. The int result is the
// slab's expansion counter.
func (w *walk) step(ctx context.Context, s segSlab, iv Interval, early ObjectID, acct *pagefile.Stats) (int, error) {
	win, local := localInterval(s.span, iv)
	if win.Len() == 0 {
		return 0, nil
	}
	fwd, trackHops := w.spec.dir == forward, w.spec.tracksHops()
	// Forward, objects arriving in an earlier slab enter at the window
	// start (Start re-bases below local lo and clamps up), objects
	// activating inside this slab enter at their own local tick, and
	// objects activating later stay out of the frontier for now. Backward,
	// every deliverer found so far delivers from the window end.
	base := s.span.Lo
	w.seeds = w.seeds[:0]
	for _, o := range w.reached {
		at, _ := w.at.Get(int(o))
		if fwd && Tick(at) > win.Hi {
			continue
		}
		h := int32(0)
		if trackHops {
			h, _ = w.hops.Get(int(o))
		}
		w.seeds = append(w.seeds, queries.SeedState{Obj: o, Hops: h, Start: max(Tick(at)-base, 0)})
	}
	if len(w.seeds) == 0 {
		return 0, nil
	}
	entries, n, err := s.core.sweep(ctx, w.buf[:0], w.seeds, local, w.spec, early, acct)
	if err != nil {
		return n, err
	}
	w.buf = entries
	for _, en := range entries {
		at := int32(base + en.Arrival)
		prev, ok := w.hops.Get(int(en.Obj))
		if !ok {
			h := en.Hops
			if !trackHops {
				// Hop-agnostic mode: cores may or may not count transfers;
				// normalize to "untracked" so mixed slab answers stay
				// consistent.
				h = -1
			}
			w.admit(en.Obj, h, Tick(at))
			continue
		}
		// Already reached: a slab can still beat a deferred seed's
		// provisional activation tick (organic propagation inside the
		// seed's own slab arrives first), and a later slab may deliver the
		// item over fewer transfers.
		if prevAt, _ := w.at.Get(int(en.Obj)); fwd && at < prevAt || !fwd && at > prevAt {
			w.at.Set(int(en.Obj), at)
		}
		if trackHops && en.Hops >= 0 && en.Hops < prev {
			w.hops.Set(int(en.Obj), en.Hops)
		}
	}
	return n, nil
}

// appendProfile appends the walk's profile to out, sorted by object.
func (w *walk) appendProfile(out []queries.ProfileEntry) []queries.ProfileEntry {
	slices.Sort(w.reached)
	for _, o := range w.reached {
		h, _ := w.hops.Get(int(o))
		at, _ := w.at.Get(int(o))
		out = append(out, queries.ProfileEntry{Obj: o, Hops: h, Arrival: Tick(at)})
	}
	return out
}

// overlappingSlabs returns the index range of slabs whose spans overlap iv
// (spans are ascending and disjoint). last < first when none overlap.
func overlappingSlabs(slabs []segSlab, iv Interval) (first, last int) {
	first = sort.Search(len(slabs), func(i int) bool { return slabs[i].span.Hi >= iv.Lo })
	last = sort.Search(len(slabs), func(i int) bool { return slabs[i].span.Lo > iv.Hi }) - 1
	return first, last
}

// localInterval clips iv to the slab and re-bases it to slab-local ticks.
func localInterval(span, iv Interval) (global, local Interval) {
	w := span.Intersect(iv)
	if w.Len() == 0 {
		return w, w
	}
	return w, Interval{Lo: w.Lo - span.Lo, Hi: w.Hi - span.Lo}
}

// segmentedCore is the time-sliced combinator: one core per time slab plus
// the cross-segment planner. slabs are in ascending span order and tile the
// time domain; they are immutable — a frozen engine's for good, a live
// engine's because each query pins its own view — so queries run fully in
// parallel like on every other core.
type segmentedCore struct {
	slabs      []segSlab
	numObjects int
	numTicks   int

	// bidir routes point queries through the bidirectional planner; set by
	// the "bidir:" combinator, whose slab cores all sweep backward too.
	// Sweeps use the one-directional walk either way.
	bidir bool
}

// reach is the cross-segment point query: sweep the slabs before the last
// overlapping one, then let that slab's own point algorithm decide, seeded
// with everything reached so far.
func (c *segmentedCore) reach(ctx context.Context, seeds []ObjectID, dst ObjectID, iv Interval, acct *pagefile.Stats) (bool, int, error) {
	if c.bidir {
		return c.reachBidir(ctx, seeds, dst, iv, acct)
	}
	iv = clampDomain(iv, c.numTicks)
	if iv.Len() == 0 {
		return false, 0, nil
	}
	w := walkPool.Get()
	defer walkPool.Put(w)
	w.reset(c.numObjects, hopAgnostic)
	for _, o := range seeds {
		w.admit(o, 0, iv.Lo)
	}
	expanded := 0
	first, last := overlappingSlabs(c.slabs, iv)
	for i := first; i <= last && !w.has(dst); i++ {
		if err := ctx.Err(); err != nil {
			return false, expanded, err
		}
		if i == last {
			_, local := localInterval(c.slabs[i].span, iv)
			ok, n, err := c.slabs[i].core.reach(ctx, w.reached, dst, local, acct)
			return ok, expanded + n, err
		}
		n, err := w.step(ctx, c.slabs[i], iv, dst, acct)
		expanded += n
		if err != nil {
			return false, expanded, err
		}
	}
	// The destination was infected before the last slab; infection is
	// monotone, so later slabs cannot change the answer.
	return w.has(dst), expanded, nil
}

// sweep is the cross-segment profile: the walk over every slab overlapping
// iv, oldest first forward and newest first backward, stopped early once a
// valid early object is reached.
func (c *segmentedCore) sweep(ctx context.Context, out []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, early ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	if !c.supports(spec) {
		return out, 0, errNotNative
	}
	iv = clampDomain(iv, c.numTicks)
	if iv.Len() == 0 {
		return out, 0, nil
	}
	w := walkPool.Get()
	defer walkPool.Put(w)
	w.reset(c.numObjects, spec)
	for _, s := range seeds {
		if int(s.Obj) < 0 || int(s.Obj) >= c.numObjects || s.Hops < 0 || s.Hops > spec.budget {
			continue
		}
		switch {
		case spec.dir == backward:
			w.admit(s.Obj, s.Hops, iv.Hi)
		case s.Start <= iv.Hi:
			w.admit(s.Obj, s.Hops, max(s.Start, iv.Lo))
		}
	}
	expanded := 0
	first, last := overlappingSlabs(c.slabs, iv)
	for k := 0; k <= last-first && !w.has(early); k++ {
		if err := ctx.Err(); err != nil {
			return out, expanded, err
		}
		i := first + k
		if spec.dir == backward {
			i = last - k
		}
		n, err := w.step(ctx, c.slabs[i], iv, early, acct)
		expanded += n
		if err != nil {
			return out, expanded, err
		}
	}
	return w.appendProfile(out), expanded, nil
}

func (c *segmentedCore) supports(spec semSpec) bool {
	for _, s := range c.slabs {
		if !s.core.supports(spec) {
			return false
		}
	}
	return true
}

func (c *segmentedCore) disk() diskIO {
	var d diskIO
	for _, s := range c.slabs {
		d.merge(s.sealed.disk())
	}
	return d
}

// segmentStats describes the time slabs of a segmented engine — or of
// several over the same slab spans, the lanes of a sharded feed, summed per
// slab.
func segmentStats(segs []*segmentedCore) []SegmentStats {
	out := make([]SegmentStats, len(segs[0].slabs))
	for i := range out {
		var d diskIO
		for _, seg := range segs {
			if i < len(seg.slabs) {
				d.merge(seg.slabs[i].sealed.disk())
				out[i].DeltaEvents += seg.slabs[i].pending
			}
		}
		out[i].Span = segs[0].slabs[i].span
		out[i].IO = statsOf(d.ioTotals())
		out[i].IndexBytes = d.indexBytes()
	}
	return out
}

// SegmentStats describes one time-slab segment of a segmented engine: its
// global tick span, the cumulative simulated I/O its segment has served,
// and its on-disk size. The per-segment counters make planner locality
// observable — a query must only ever charge the segments overlapping its
// interval. For a LiveEngine, DeltaEvents is the segment's pending
// delta-log depth (late/retracted contacts not yet compacted into the
// sealed index); zero for frozen segments.
type SegmentStats struct {
	Span        Interval
	IO          IOStats
	IndexBytes  int64
	DeltaEvents int
}

// Segmented is implemented by engines built from time-sliced segments
// (the "segmented:*" and "bidir:*" backends and LiveEngine). Callers obtain
// it by type assertion from an Engine.
type Segmented interface {
	// SegmentStats returns one entry per segment in ascending time order.
	SegmentStats() []SegmentStats
}

// segmentedEngine wraps the uniform engine with the Segmented surface.
type segmentedEngine struct {
	*engine
	seg *segmentedCore
}

func (e *segmentedEngine) SegmentStats() []SegmentStats {
	return segmentStats([]*segmentedCore{e.seg})
}

func (e *segmentedEngine) Stats() EngineStats {
	st := e.engine.Stats()
	st.Segments = len(e.seg.slabs)
	return st
}

// segmentedOver is the "segmented:" combinator and, with bidir set, the
// "bidir:" one: base's index built once per time slab under the
// cross-segment planner, with point queries planned from both ends for
// "bidir:".
func segmentedOver(base backendSpec, bidir bool) backendSpec {
	kind, desc := "segmented", "time-sliced %s segments with a frontier-carrying cross-segment planner"
	if bidir {
		kind, desc = "bidir", "meet-in-the-middle bidirectional point queries over time-sliced %s segments"
	}
	return backendSpec{
		info: BackendInfo{
			Name:              kind + ":" + base.info.Name,
			Description:       fmt.Sprintf(desc, base.info.Name),
			DiskResident:      base.info.DiskResident,
			NeedsTrajectories: base.info.NeedsTrajectories,
		},
		open: func(src Source, opts Options) (core, error) {
			return buildSegmentedCore(base, bidir, src, opts)
		},
		decorate: func(e *engine) Engine {
			return &segmentedEngine{engine: e, seg: e.core.(*segmentedCore)}
		},
		base:   &base,
		sliced: true,
		bidir:  bidir,
	}
}

// sliceable reports why c, built by base, cannot be a slab core of a
// time-sliced engine, or nil: slabs must carry the plain frontier forward,
// and backward too under the bidirectional planner. (ReachGrid's guided
// expansion has no backward analogue; SPJ and GRAIL have no sweep at all.)
func sliceable(c core, base string, bidir bool) error {
	switch {
	case !c.supports(hopAgnostic):
		return fmt.Errorf("%q has no forward sweep to carry a frontier across slabs with", base)
	case bidir && !c.supports(hopAgnosticBackward):
		return fmt.Errorf("%q has no backward sweep for the bidirectional planner", base)
	}
	return nil
}

// buildSegmentedCore splits src into time slabs and builds one base segment
// per slab; disk-resident segments share one buffer pool.
func buildSegmentedCore(base backendSpec, bidir bool, src Source, opts Options) (*segmentedCore, error) {
	numObjects, numTicks := sourceDims(src)
	if numTicks == 0 {
		return nil, fmt.Errorf("streach: segmented %q: empty time domain", base.info.Name)
	}
	layout := segment.NewLayout(opts.SegmentTicks, numTicks)
	slabOpts := withSharedPool(opts, base.info.DiskResident)
	c := &segmentedCore{
		numObjects: numObjects,
		numTicks:   numTicks,
		bidir:      bidir,
	}
	for i := 0; i < layout.NumSlabs(); i++ {
		span := layout.Span(i)
		var slabSrc Source
		if ds := src.sourceDataset(); ds != nil && base.info.NeedsTrajectories {
			slabSrc = &Dataset{d: ds.d.Window(span.Lo, span.Hi)}
		} else {
			slabSrc = &ContactNetwork{net: src.sourceContacts().net.Window(span.Lo, span.Hi)}
		}
		sc, err := base.build(slabSrc, slabOpts)
		if err != nil {
			return nil, fmt.Errorf("segment %v: %w", span, err)
		}
		if err := sliceable(sc, base.info.Name, bidir); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnknownBackend, err)
		}
		c.slabs = append(c.slabs, segSlab{span: span, core: sc, sealed: sealedSlab{core: sc}})
	}
	return c, nil
}
