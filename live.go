// LiveEngine: a query engine over a live position feed, queryable while
// ingesting. This is the streaming completion of the segmented
// architecture — where "segmented:<name>" slices a frozen dataset,
// LiveEngine grows the slices as the feed arrives:
//
//	tail    — appends land in one mutable in-memory segment (a
//	          per-instant pair table over the current time slab only);
//	sealed  — when the tail's slab closes it is flushed through the base
//	          backend's builder into an immutable index segment;
//	query   — the cross-segment planner walks sealed segments plus the
//	          tail's table as it stands, so answers always cover every
//	          ingested instant with no rebuild of historical slabs, ever.
//
// Real feeds are late, duplicated and occasionally wrong, so ingestion is
// event-based underneath: Ingest accepts ContactEvents at any tick —
// frontier appends, late adds into already-sealed slabs, retractions
// (privacy deletes / bad-data corrections). Out-of-order events land in
// per-slab delta logs (segment.Log): a dirty slab's overlay is its
// per-instant pair table with the events folded in, patched copy-on-write
// (a late batch replaces only the lists of the instants it touches), and
// the planner sweeps it instead of the stale sealed index, so answers are
// exact immediately; Compact (or the Options.CompactEvents threshold)
// re-seals dirty slabs through the same build machinery. AddInstant
// remains as a thin position-join wrapper over the event path.
//
// Appends cost O(one instant) amortized (plus one slab-sized index build
// each SegmentTicks instants); queries are lock-free after taking a
// consistent view. One goroutine may append while any number query.
//
// This file is the ingest side. The query side is the same engine wrapper
// every Open'ed backend has, over a core that pins one view of the logs per
// query: the cross-segment planner of segmented.go over the lane's slabs,
// under the scatter-gather coordinator of shard.go when the feed is
// sharded.

package streach

import (
	"cmp"
	"errors"
	"fmt"
	"sync/atomic"

	"streach/internal/contact"
	"streach/internal/queries"
	"streach/internal/segment"
	"streach/internal/shard"
	"streach/internal/stjoin"
)

// ContactEvent is one observation from a contact feed: objects A and B
// were within contact range at tick Tick — or, with Retract set, that
// earlier observation is withdrawn. Events may arrive in any tick order;
// LiveEngine.Ingest is their entry point.
type ContactEvent struct {
	Tick    Tick
	A, B    ObjectID
	Retract bool
}

// IngestReport summarizes what one Ingest batch did.
type IngestReport struct {
	// Applied counts contact instants applied at (or beyond) the frontier;
	// Late counts instants applied behind it, into the tail's table or a
	// sealed segment's delta log.
	Applied int
	Late    int
	// Retracted counts removed contact instants; Duplicates counts adds of
	// already-present instants; RetractMisses counts retractions that
	// matched nothing (both are dropped, not errors — feeds repeat).
	Retracted     int
	Duplicates    int
	RetractMisses int
	// Sealed lists the global tick spans of segments sealed by the batch;
	// Compacted counts dirty segments re-sealed by the Options.CompactEvents
	// threshold policy.
	Sealed    []Interval
	Compacted int
}

// ErrBadEvent reports a structurally invalid contact event (object out of
// range, self-contact, negative tick). Ingest validates the whole batch
// before applying anything, so a batch rejected with ErrBadEvent left the
// engine untouched.
var ErrBadEvent = errors.New("streach: bad contact event")

// ErrIngestHorizon reports an add whose tick lies at or beyond
// frontier + Options.IngestHorizon. Like ErrBadEvent it is raised during
// pre-validation: the batch is rejected whole.
var ErrIngestHorizon = errors.New("streach: event tick beyond ingest horizon")

// ErrNotLiveCapable reports a backend that cannot seal live segments: only
// backends that open from a contact network and sweep forward (reachgraph,
// reachgraph-mem, oracle, and wrappers over them) can.
var ErrNotLiveCapable = errors.New("streach: backend cannot serve a live feed")

// LiveEngine is an Engine over a live position feed. It satisfies Engine
// like every registry backend, but its time domain grows with each
// AddInstant; queries are evaluated against every instant ingested before
// the query took its view.
type LiveEngine struct {
	// engine is the query side: the uniform wrapper, viewing the lanes
	// through pin.
	*engine
	joiner *stjoin.Joiner

	// lanes are the ingest logs. An unsharded feed has one. Under a
	// "shard:<K>:" name prefix (hash partitioner only — spatial needs
	// trajectories the live feed does not carry) lanes[s] is shard s's own
	// log: events route to the lane of each endpoint's owner (cross-shard
	// contacts to both), so sealing and compaction stay per-shard, and
	// queries run the scatter-gather relaxation over per-lane views. assign
	// and cut are nil for an unsharded feed.
	lanes  []*liveLane
	assign *shard.Assignment
	cut    *shardCut

	// horizon bounds how far past the frontier an add may land (-1 means
	// unbounded); compactEvents is the per-slab delta depth that triggers
	// an automatic re-seal (0 means manual Compact only).
	horizon       int
	compactEvents int

	// bidir routes the lanes' point queries through the bidirectional
	// planner ("bidir:" in the name).
	bidir bool

	// ingestHook and sealHook are the notification hooks of OnIngest and
	// OnSegmentSeal. They are invoked synchronously from Ingest/AddInstant
	// (the appender goroutine); registration must happen before the first
	// append.
	ingestHook func(iv Interval)
	sealHook   func(span Interval)
}

// liveLane is one ingest log. evs is the appender's routing buffer for the
// batch in flight: the events whose endpoint A the lane owns, and, marked
// Mirror, the copies of cross-shard events whose endpoint B it owns. Both
// are applied as one batch, so a copy lands at the frontier like its
// original instead of behind an instant the original just closed.
type liveLane struct {
	log *segment.Log[sealedSlab]
	evs []contact.Event
}

// NewLiveEngine returns a live engine for numObjects objects moving in env
// with contact threshold contactDist. backend is any name of the backend
// grammar (a leading "live:" is accepted, so an engine's own Name() opens
// its twin) whose structure can grow with a feed:
//
//   - what is built once per sealed slab — the name itself, or what its
//     "shard:"/"segmented:"/"bidir:" prefixes wrap — must open from a
//     contact network and carry a frontier forward ("reachgraph",
//     "reachgraph-mem", "oracle", ...);
//     Options.SegmentTicks sets the slab width and disk-resident segments
//     share one buffer pool (Options.Pool or a private one);
//   - a "bidir:" prefix ("bidir:reachgraph", ...) routes point queries
//     through the bidirectional planner, exactly as for the frozen "bidir:*"
//     backends; the slabs must then sweep backward too;
//   - a "shard:<K>:" prefix ("shard:4:reachgraph", "shard:2:bidir:reachgraph")
//     hash-partitions the object population into K ingest lanes, each with
//     its own segment log, buffer pool (unless Options.Pool is shared) and
//     per-shard sealing/compaction; queries run the scatter-gather frontier
//     relaxation over the lanes. Only the hash partitioner is live-capable —
//     spatial partitioning snaps trajectories the feed does not carry.
func NewLiveEngine(backend string, numObjects int, env Rect, contactDist float64, opts Options) (*LiveEngine, error) {
	spec, err := resolve(backend)
	if err != nil {
		return nil, fmt.Errorf("%w (live-capable indexes: oracle, reachgraph, reachgraph-mem)", err)
	}
	if spec.live {
		spec = *spec.base
	}
	if numObjects <= 0 {
		return nil, errors.New("streach: live engine needs at least one object")
	}
	if contactDist <= 0 {
		return nil, errors.New("streach: contact threshold must be positive")
	}
	horizon := opts.IngestHorizon
	switch {
	case horizon == 0:
		horizon = 4 * segment.Width(opts.SegmentTicks)
	case horizon < 0:
		horizon = -1
	}
	le := &LiveEngine{
		joiner:        stjoin.NewJoiner(env, contactDist),
		lanes:         make([]*liveLane, 1),
		horizon:       horizon,
		compactEvents: max(opts.CompactEvents, 0),
	}
	le.engine = &engine{
		name:       "live:" + spec.info.Name,
		numObjects: numObjects,
		view:       le.pin,
		// The snapshot may include instants ingested after the query's view
		// was taken; answers remain exact for every instant of the view.
		fallback: func() *queries.Oracle { return queries.NewOracle(le.snapshotNet()) },
	}
	// Regrow the name's structure over ingest logs: an outermost "shard:"
	// becomes the ingest lanes, a "segmented:" or "bidir:" under it names
	// the lanes' own planner, and what that wraps is built per sealed slab.
	lane := spec
	if spec.shards > 0 {
		if spec.partitioner != "hash" {
			return nil, fmt.Errorf("live shard:%s: %w (spatial partitioning snaps trajectories; live shards are hash-partitioned)",
				spec.partitioner, ErrNotLiveCapable)
		}
		if le.assign, err = shard.Hash(numObjects, spec.shards); err != nil {
			return nil, err
		}
		le.lanes = make([]*liveLane, spec.shards)
		le.cut = &shardCut{contacts: make([]atomic.Int64, spec.shards)}
		lane = *spec.base
	}
	slab := lane
	if lane.sliced {
		slab, le.bidir = *lane.base, lane.bidir
	}
	if slab.info.NeedsTrajectories {
		return nil, fmt.Errorf("live %q: %w (indexes trajectories)", slab.info.Name, ErrNotLiveCapable)
	}
	for s := range le.lanes {
		// Each lane's segments share a pool of their own unless the caller
		// shared Options.Pool across all of them.
		laneOpts := withSharedPool(opts, slab.info.DiskResident)
		if s == 0 {
			// Probe seal-ability now, not at the first slab boundary: a
			// one-tick empty network must build, into a core the planner can
			// carry a frontier through.
			probe, err := slab.build(&ContactNetwork{net: contact.FromContacts(numObjects, 1, nil)}, laneOpts)
			if err != nil {
				return nil, err
			}
			if err := sliceable(probe, slab.info.Name, le.bidir); err != nil {
				return nil, fmt.Errorf("live: %w: %v", ErrNotLiveCapable, err)
			}
		}
		le.lanes[s] = newLiveLane(slab, laneOpts, numObjects, opts.SegmentTicks)
	}
	return le, nil
}

// liveOver is the "live:" prefix: the name of the LiveEngine that
// NewLiveEngine grows from base. It resolves — LiveEngine.Name() round-trips
// — but has no frozen form to Open.
func liveOver(base backendSpec) backendSpec {
	return backendSpec{
		info: BackendInfo{
			Name:         "live:" + base.info.Name,
			Description:  fmt.Sprintf("%s segments sealed from a live feed as it is ingested", base.info.Name),
			DiskResident: base.info.DiskResident,
		},
		open: func(Source, Options) (core, error) {
			return nil, errors.New("a live engine grows with its feed and has no frozen form: build it with NewLiveEngine")
		},
		base: &base,
		live: true,
	}
}

// newLiveLane returns an empty ingest lane sealing its slabs through slab.
func newLiveLane(slab backendSpec, opts Options, numObjects, width int) *liveLane {
	// built remembers the segment last sealed at each slab (by span start):
	// a second build of a slab is a compaction, and the rebuilt segment
	// carries the I/O totals of the one it retires forward so the engine's
	// cumulative totals never run backwards. (Reads a query still holding
	// the retired segment's view charges after this point reach its own
	// delta but not the totals.) Builds run under the log's lock, on the
	// single appender goroutine.
	built := map[Tick]sealedSlab{}
	return &liveLane{log: segment.NewLog(numObjects, width, func(span Interval, net *contact.Network) (sealedSlab, error) {
		c, err := slab.build(&ContactNetwork{net: net}, opts)
		if err != nil {
			return sealedSlab{}, err
		}
		next := sealedSlab{core: c}
		if prev, ok := built[span.Lo]; ok {
			next.carried = prev.disk().ioTotals()
		}
		built[span.Lo] = next
		return next, nil
	})}
}

// OnIngest registers fn to be invoked synchronously after every ingest
// that changes contact content, once per contiguous interval of changed
// ticks — a frontier append reports the new instant [t, t]; a late add or
// retraction reports the historical ticks it patched. A serving layer uses
// it to invalidate derived state (query caches) overlapping the interval.
// Register before the first append; the hook runs on the appender
// goroutine and must not ingest itself.
func (le *LiveEngine) OnIngest(fn func(iv Interval)) { le.ingestHook = fn }

// OnSegmentSeal registers fn to be invoked synchronously whenever an
// append closes the current time slab and seals it into an immutable
// index segment, with the sealed slab's global tick span. Register before
// the first AddInstant; the hook runs on the appender goroutine, after
// the seal is published (a query issued from inside the hook already sees
// the sealed segment).
func (le *LiveEngine) OnSegmentSeal(fn func(span Interval)) { le.sealHook = fn }

// Ingest folds a batch of contact events into the feed — the primary
// ingest surface. Events may target any tick: adds at the frontier extend
// the time domain (padding any gap with empty instants, sealing slabs as
// widths close), adds behind it land in the tail's table or a sealed
// segment's delta log, and retractions remove previously ingested contact
// instants. Answers reflect the batch exactly as soon as Ingest returns —
// no compaction is needed for correctness.
//
// The whole batch is validated before anything is applied: a structurally
// invalid event (ErrBadEvent) or an add past the ingest horizon
// (ErrIngestHorizon) rejects the batch with the engine untouched. A seal
// or compaction build error can still leave the batch partially applied;
// the report states what was applied and the engine stays consistent.
// Like AddInstant, calls must come from a single goroutine.
func (le *LiveEngine) Ingest(events []ContactEvent) (IngestReport, error) {
	frontier := le.NumTicks()
	for i, ev := range events {
		switch {
		case ev.A < 0 || int(ev.A) >= le.numObjects || ev.B < 0 || int(ev.B) >= le.numObjects:
			return IngestReport{}, fmt.Errorf("%w: event %d: object out of range [0, %d)",
				ErrBadEvent, i, le.numObjects)
		case ev.A == ev.B:
			return IngestReport{}, fmt.Errorf("%w: event %d: self-contact of object %d",
				ErrBadEvent, i, ev.A)
		case ev.Tick < 0:
			return IngestReport{}, fmt.Errorf("%w: event %d: negative tick %d",
				ErrBadEvent, i, ev.Tick)
		case !ev.Retract && le.horizon >= 0 && int(ev.Tick) >= frontier+le.horizon:
			return IngestReport{}, fmt.Errorf("%w: event %d: tick %d vs frontier %d (horizon %d)",
				ErrIngestHorizon, i, ev.Tick, frontier, le.horizon)
		}
	}
	le.clearRoutes()
	for _, ev := range events {
		le.routeEvent(contact.Event{Tick: ev.Tick, A: ev.A, B: ev.B, Retract: ev.Retract})
	}
	return le.applyLanes()
}

// owner returns the lane storing the contacts incident to o.
func (le *LiveEngine) owner(o ObjectID) int {
	if le.assign == nil {
		return 0
	}
	return le.assign.Owner(o)
}

func (le *LiveEngine) clearRoutes() {
	for _, ln := range le.lanes {
		ln.evs = ln.evs[:0]
	}
}

// routeEvent appends e to its owner lanes' routing buffers: owner(A)'s
// copy carries the report counts, and when the endpoints live on different
// shards a mirrored copy lands in owner(B)'s batch, so both shard
// sub-networks stay complete for their own objects. On a sharded feed adds
// also feed the live partition-quality counters.
func (le *LiveEngine) routeEvent(e contact.Event) {
	sa, sb := le.owner(e.A), le.owner(e.B)
	le.lanes[sa].evs = append(le.lanes[sa].evs, e)
	if sb != sa {
		mirror := e
		mirror.Mirror = true
		le.lanes[sb].evs = append(le.lanes[sb].evs, mirror)
	}
	if le.cut != nil && !e.Retract {
		le.cut.total.Add(1)
		le.cut.contacts[sa].Add(1)
		if sb != sa {
			le.cut.cross.Add(1)
			le.cut.contacts[sb].Add(1)
		}
	}
}

// applyLanes folds the routed batches into every lane and re-aligns the
// lane clocks to the common frontier, so a shard whose objects were quiet
// still covers the ticks its peers ingested. Per-event report counts skip
// the mirrored copies (a cross-shard event is one event, however many lanes
// store it); Compacted sums over lanes, and Sealed — with the seal hook —
// reports lane 0's spans, identical across lanes once aligned.
func (le *LiveEngine) applyLanes() (IngestReport, error) {
	var rep IngestReport
	var firstErr error
	for s, ln := range le.lanes {
		if len(ln.evs) > 0 {
			res, err := ln.log.IngestEvents(ln.evs, le.compactEvents)
			le.countLane(s, res, &rep)
			firstErr = cmp.Or(firstErr, err)
		}
	}
	frontier := 0
	for _, ln := range le.lanes {
		frontier = max(frontier, ln.log.NumTicks())
	}
	err := le.advanceLanes(frontier, &rep)
	return rep, cmp.Or(firstErr, err)
}

// advanceLanes pads every lane to numTicks ticks.
func (le *LiveEngine) advanceLanes(numTicks int, rep *IngestReport) error {
	var firstErr error
	for s, ln := range le.lanes {
		if ln.log.NumTicks() >= numTicks {
			continue
		}
		res, err := ln.log.AdvanceTo(numTicks)
		le.countLane(s, res, rep)
		firstErr = cmp.Or(firstErr, err)
	}
	return firstErr
}

// countLane accumulates one lane apply into the batch report and fires the
// hooks for it. Hooks fire even when the apply ultimately erred: everything
// listed in res was genuinely applied, so derived state must still hear
// about it. The ingest hook fires per lane — an invalidation heard once per
// shard that changed is idempotent for derived state; the seal hook fires
// from lane 0 only, whose slab boundaries speak for all lanes.
func (le *LiveEngine) countLane(s int, res segment.ApplyResult, rep *IngestReport) {
	rep.Applied += res.Frontier
	rep.Late += res.Late
	rep.Retracted += res.Retracted
	rep.Duplicates += res.Duplicates
	rep.RetractMisses += res.RetractMisses
	rep.Compacted += res.Compacted
	if s == 0 {
		rep.Sealed = append(rep.Sealed, res.Sealed...)
	}
	if le.ingestHook != nil {
		for _, iv := range res.Changed {
			le.ingestHook(iv)
		}
	}
	if s == 0 && le.sealHook != nil {
		for _, span := range res.Sealed {
			le.sealHook(span)
		}
	}
}

// AddInstant ingests the next instant of the feed; positions[i] is object
// i's position. It is a thin position-join wrapper over the event path:
// the joined pairs become frontier ContactEvents (a pair-less instant
// still advances the clock). Appends must come from a single goroutine;
// queries may run concurrently. When the append closes the current slab,
// the slab is sealed into an immutable index segment before AddInstant
// returns.
func (le *LiveEngine) AddInstant(positions []Point) error {
	if len(positions) != le.numObjects {
		return fmt.Errorf("streach: got %d positions, want %d", len(positions), le.numObjects)
	}
	tick := Tick(le.NumTicks())
	le.clearRoutes()
	le.joiner.Join(positions, func(a, b int) bool {
		le.routeEvent(contact.Event{Tick: tick, A: ObjectID(a), B: ObjectID(b)})
		return true
	})
	if _, err := le.applyLanes(); err != nil {
		return err
	}
	return le.AdvanceTo(tick)
}

// AdvanceTo pads the feed with empty instants until tick is part of the
// time domain — the clock half of ingestion, decoupled from contact
// arrival so a quiet feed still moves the frontier (and with it the
// ingest horizon). Already-covered ticks are a no-op; the clock never
// rewinds. Single appender goroutine, like all ingestion.
func (le *LiveEngine) AdvanceTo(tick Tick) error {
	var rep IngestReport
	return le.advanceLanes(int(tick)+1, &rep)
}

// Compact re-seals every sealed segment carrying pending delta-log events,
// folding the corrections into fresh immutable index segments built
// through the base backend; the delta logs reset to empty. Query answers
// are unchanged — compaction trades the overlay's oracle evaluation for
// the base backend's indexed one. Returns the number of segments rebuilt.
// Runs on the appender goroutine; queries may run concurrently and keep
// their (still-exact) views.
func (le *LiveEngine) Compact() (int, error) {
	total := 0
	var firstErr error
	for _, ln := range le.lanes {
		n, err := ln.log.Compact()
		total += n
		firstErr = cmp.Or(firstErr, err)
	}
	return total, firstErr
}

// ContactActiveAt reports whether contact (a, b) is part of the feed's
// current effective state at tick t — ingested (directly or late) and not
// retracted. A serving layer uses it to pre-validate wire retractions.
func (le *LiveEngine) ContactActiveAt(a, b ObjectID, t Tick) bool {
	// Owner(a)'s lane holds every contact incident to a, including the
	// duplicated cross-shard copies.
	return le.lanes[le.owner(a)].log.ActiveAt(a, b, t)
}

// NumTicks returns the number of instants ingested so far.
func (le *LiveEngine) NumTicks() int { return le.lanes[0].log.NumTicks() }

// NumSealedSegments returns the number of sealed (immutable) segments.
func (le *LiveEngine) NumSealedSegments() int { return le.lanes[0].log.NumSealed() }

// Snapshot returns the contact network over every instant ingested so far,
// for validation against ground truth and as an Open source. The engine
// remains usable.
func (le *LiveEngine) Snapshot() *ContactNetwork {
	return &ContactNetwork{net: le.snapshotNet()}
}

func (le *LiveEngine) snapshotNet() *contact.Network {
	if len(le.lanes) == 1 {
		return le.lanes[0].log.Snapshot()
	}
	// Merge the lane snapshots back into the whole-population network,
	// deduplicating the cross-shard contacts the cut stored twice.
	nets := make([]*contact.Network, len(le.lanes))
	numTicks := 0
	for s, ln := range le.lanes {
		nets[s] = ln.log.Snapshot()
		numTicks = max(numTicks, nets[s].NumTicks)
	}
	return shard.Merge(nets, le.numObjects, numTicks)
}

// laneCore is the planner over one lane's view: sealed segments plus, when
// the tail holds instants, an oracle sweeping the tail's pair table. A
// dirty sealed segment — one with pending delta-log events — is served by
// an oracle over its overlay table instead of its (stale) sealed index, so
// out-of-order corrections are query-visible immediately. Nothing is built:
// the oracles read the tables the view pinned, which are immutable, so a
// query proceeds lock-free.
func (le *LiveEngine) laneCore(sealed []segment.SlabView[sealedSlab], tailSpan Interval, tail *contact.PairTable, numTicks int) *segmentedCore {
	slabs := make([]segSlab, 0, len(sealed)+1)
	for _, s := range sealed {
		slab := segSlab{span: s.Span, core: s.Value.core, sealed: s.Value, pending: s.Pending}
		if s.Overlay != nil {
			slab.core = oracleCore{o: queries.NewTableOracle(s.Overlay)}
		}
		slabs = append(slabs, slab)
	}
	if tail != nil {
		slabs = append(slabs, segSlab{span: tailSpan, core: oracleCore{o: queries.NewTableOracle(tail)}})
	}
	return &segmentedCore{
		slabs:      slabs,
		numObjects: le.numObjects,
		numTicks:   numTicks,
		bidir:      le.bidir,
	}
}

// pin is the engine wrapper's view: the core one query evaluates against —
// the planner over one consistent view of the lane (see laneCore) or, on a
// sharded feed, the scatter-gather coordinator over one view per lane. Its
// time domain is the minimum lane frontier, so queries racing an append
// see only ticks every lane has covered.
func (le *LiveEngine) pin() (core, int) {
	if le.cut == nil {
		seg := le.laneCore(le.lanes[0].log.View())
		return seg, seg.numTicks
	}
	sh := &shardCore{
		assign:     le.assign,
		parts:      make([]core, len(le.lanes)),
		numObjects: le.numObjects,
		cut:        le.cut,
	}
	for i, ln := range le.lanes {
		seg := le.laneCore(ln.log.View())
		sh.parts[i] = seg
		if i == 0 || seg.numTicks < sh.numTicks {
			sh.numTicks = seg.numTicks
		}
	}
	return sh, sh.numTicks
}

// Stats returns a consistent snapshot of the live engine's observable
// state; see Engine.Stats. NumTicks and the segment counts reflect the
// instants ingested before the snapshot, and may lag an ongoing append by
// at most one instant. DeltaEvents/DirtySegments expose the current
// delta-log pressure; LateEvents/Retractions/Compactions are cumulative.
// Sharded engines sum the per-lane footprints and counters.
// LateEvents and Retractions count events, not lane applications: a
// cross-shard event is stored on both sides but counted once, on the lane
// of its A endpoint. Compactions counts the slabs each lane re-sealed, and
// DeltaEvents the stored copies, so a late cross-shard event counts there
// once per side, like ShardStats.Contacts. Segment counts
// come from lane 0, whose slab boundaries speak for all lanes (the
// appender keeps the clocks aligned), and SegmentDetails lists the sealed
// segments, then the tail when it holds instants, each summed across
// lanes.
func (le *LiveEngine) Stats() EngineStats {
	c, numTicks := le.pin()
	st := coreStats(le.name, le.numObjects, numTicks, c)
	for _, s := range slabChains(c)[0].slabs {
		if s.sealed.core != nil {
			st.SealedSegments++
		}
	}
	for _, ln := range le.lanes {
		c := ln.log.Counters()
		st.LateEvents += c.LateApplied
		st.Retractions += c.Retractions
		st.Compactions += c.Compactions
	}
	return st
}

var _ Engine = (*LiveEngine)(nil)
