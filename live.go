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
// every Open'ed backend has, over a core that pins one view of the log per
// query: the cross-segment planner of segmented.go over the log's slabs.

package streach

import (
	"errors"
	"fmt"

	"streach/internal/contact"
	"streach/internal/queries"
	"streach/internal/segment"
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
	// engine is the query side: the uniform wrapper, viewing the log
	// through pin.
	*engine
	joiner *stjoin.Joiner

	// log is the ingest log over the whole population; evs is the
	// appender's buffer for the batch in flight, reused across batches.
	log *segment.Log[sealedSlab]
	evs []contact.Event

	// horizon bounds how far past the frontier an add may land (-1 means
	// unbounded); compactEvents is the per-slab delta depth that triggers
	// an automatic re-seal (0 means manual Compact only).
	horizon       int
	compactEvents int

	// bidir routes point queries through the bidirectional planner
	// ("bidir:" in the name).
	bidir bool

	// ingestHook and sealHook are the notification hooks of OnIngest and
	// OnSegmentSeal. They are invoked synchronously from Ingest/AddInstant
	// (the appender goroutine); registration must happen before the first
	// append.
	ingestHook func(iv Interval)
	sealHook   func(span Interval)
}

// NewLiveEngine returns a live engine for numObjects objects moving in env
// with contact threshold contactDist. backend is any name of the backend
// grammar (a leading "live:" is accepted, so an engine's own Name() opens
// its twin) whose structure can grow with a feed:
//
//   - what is built once per sealed slab — the name itself, or what its
//     "segmented:"/"bidir:" prefix wraps — must open from a contact network
//     and carry a frontier forward ("reachgraph", "reachgraph-mem",
//     "oracle", ...); Options.SegmentTicks sets the slab width and
//     disk-resident segments share one buffer pool (Options.Pool or a
//     private one);
//   - a "bidir:" prefix ("bidir:reachgraph", ...) routes point queries
//     through the bidirectional planner, exactly as for the frozen "bidir:*"
//     backends; the slabs must then sweep backward too;
//   - an outer "shard:<K>:" prefix is refused with ErrNotLiveCapable: a live
//     feed keeps one log over the whole population.
func NewLiveEngine(backend string, numObjects int, env Rect, contactDist float64, opts Options) (*LiveEngine, error) {
	spec, err := resolve(backend)
	if err != nil {
		return nil, fmt.Errorf("%w (live-capable indexes: oracle, reachgraph, reachgraph-mem)", err)
	}
	if spec.live {
		spec = *spec.base
	}
	if spec.sharded {
		return nil, fmt.Errorf("live %q: %w (a live feed keeps one log; shard a frozen index instead)",
			spec.info.Name, ErrNotLiveCapable)
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
	// Regrow the name's structure over the ingest log: a "segmented:" or
	// "bidir:" names the log's own planner, and what it wraps is built per
	// sealed slab.
	le := &LiveEngine{
		joiner:        stjoin.NewJoiner(env, contactDist),
		horizon:       horizon,
		compactEvents: max(opts.CompactEvents, 0),
	}
	slab := spec
	if spec.sliced {
		slab, le.bidir = *spec.base, spec.bidir
	}
	if slab.info.NeedsTrajectories {
		return nil, fmt.Errorf("live %q: %w (indexes trajectories)", slab.info.Name, ErrNotLiveCapable)
	}
	opts = withSharedPool(opts, slab.info.DiskResident)
	// Probe seal-ability now, not at the first slab boundary: a one-tick
	// empty network must build, into a core the planner can carry a
	// frontier through.
	probe, err := slab.build(&ContactNetwork{net: contact.FromContacts(numObjects, 1, nil)}, opts)
	if err != nil {
		return nil, err
	}
	if err := sliceable(probe, slab.info.Name, le.bidir); err != nil {
		return nil, fmt.Errorf("live: %w: %v", ErrNotLiveCapable, err)
	}
	le.log = newLiveLog(slab, opts, numObjects)
	le.engine = &engine{
		name:       "live:" + spec.info.Name,
		numObjects: numObjects,
		view:       le.pin,
		// The snapshot may include instants ingested after the query's view
		// was taken; answers remain exact for every instant of the view.
		fallback: func() *queries.Oracle { return queries.NewOracle(le.log.Snapshot()) },
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

// newLiveLog returns an empty ingest log of Options.SegmentTicks-wide slabs,
// sealing them through slab.
func newLiveLog(slab backendSpec, opts Options, numObjects int) *segment.Log[sealedSlab] {
	// built remembers the segment last sealed at each slab (by span start):
	// a second build of a slab is a compaction, and the rebuilt segment
	// carries the I/O totals of the one it retires forward so the engine's
	// cumulative totals never run backwards. (Reads a query still holding
	// the retired segment's view charges after this point reach its own
	// delta but not the totals.) Builds run under the log's lock, on the
	// single appender goroutine.
	built := map[Tick]sealedSlab{}
	return segment.NewLog(numObjects, opts.SegmentTicks, func(span Interval, net *contact.Network) (sealedSlab, error) {
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
	})
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
	le.evs = le.evs[:0]
	for _, ev := range events {
		le.evs = append(le.evs, contact.Event(ev))
	}
	res, err := le.log.IngestEvents(le.evs, le.compactEvents)
	return le.report(res), err
}

// report turns one log apply into its batch report and fires the hooks for
// it. Hooks fire even when the apply ultimately erred: everything listed in
// res was genuinely applied, so derived state must still hear about it.
func (le *LiveEngine) report(res segment.ApplyResult) IngestReport {
	if le.ingestHook != nil {
		for _, iv := range res.Changed {
			le.ingestHook(iv)
		}
	}
	if le.sealHook != nil {
		for _, span := range res.Sealed {
			le.sealHook(span)
		}
	}
	return IngestReport{
		Applied:       res.Frontier,
		Late:          res.Late,
		Retracted:     res.Retracted,
		Duplicates:    res.Duplicates,
		RetractMisses: res.RetractMisses,
		Sealed:        res.Sealed,
		Compacted:     res.Compacted,
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
	le.evs = le.evs[:0]
	le.joiner.Join(positions, func(a, b int) bool {
		le.evs = append(le.evs, contact.Event{Tick: tick, A: ObjectID(a), B: ObjectID(b)})
		return true
	})
	res, err := le.log.IngestEvents(le.evs, le.compactEvents)
	le.report(res)
	if err != nil {
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
	res, err := le.log.AdvanceTo(int(tick) + 1)
	le.report(res)
	return err
}

// Compact re-seals every sealed segment carrying pending delta-log events,
// folding the corrections into fresh immutable index segments built
// through the base backend; the delta logs reset to empty. Query answers
// are unchanged — compaction trades the overlay's oracle evaluation for
// the base backend's indexed one. Returns the number of segments rebuilt.
// Runs on the appender goroutine; queries may run concurrently and keep
// their (still-exact) views.
func (le *LiveEngine) Compact() (int, error) { return le.log.Compact() }

// ContactActiveAt reports whether contact (a, b) is part of the feed's
// current effective state at tick t — ingested (directly or late) and not
// retracted. A serving layer uses it to pre-validate wire retractions.
func (le *LiveEngine) ContactActiveAt(a, b ObjectID, t Tick) bool {
	return le.log.ActiveAt(a, b, t)
}

// NumTicks returns the number of instants ingested so far.
func (le *LiveEngine) NumTicks() int { return le.log.NumTicks() }

// NumSealedSegments returns the number of sealed (immutable) segments.
func (le *LiveEngine) NumSealedSegments() int { return le.log.NumSealed() }

// Snapshot returns the contact network over every instant ingested so far,
// for validation against ground truth and as an Open source. The engine
// remains usable.
func (le *LiveEngine) Snapshot() *ContactNetwork {
	return &ContactNetwork{net: le.log.Snapshot()}
}

// viewCore is the planner over one view of the log: sealed segments plus,
// when the tail holds instants, an oracle sweeping the tail's pair table. A
// dirty sealed segment — one with pending delta-log events — is served by
// an oracle over its overlay table instead of its (stale) sealed index, so
// out-of-order corrections are query-visible immediately. Nothing is built:
// the oracles read the tables the view pinned, which are immutable, so a
// query proceeds lock-free.
func (le *LiveEngine) viewCore(sealed []segment.SlabView[sealedSlab], tailSpan Interval, tail *contact.PairTable, numTicks int) *segmentedCore {
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

// pin is the engine wrapper's view: the planner over one consistent view
// of the log (see viewCore).
func (le *LiveEngine) pin() (core, int) {
	seg := le.viewCore(le.log.View())
	return seg, seg.numTicks
}

// Stats returns a consistent snapshot of the live engine's observable
// state; see Engine.Stats. NumTicks and the segment counts reflect the
// instants ingested before the snapshot, and may lag an ongoing append by
// at most one instant. DeltaEvents/DirtySegments expose the current
// delta-log pressure; LateEvents/Retractions/Compactions are cumulative.
// SegmentDetails lists the sealed segments, then the tail when it holds
// instants.
func (le *LiveEngine) Stats() EngineStats {
	seg := le.viewCore(le.log.View())
	st := coreStats(le.name, le.numObjects, seg.numTicks, seg)
	for _, s := range seg.slabs {
		if s.sealed.core != nil {
			st.SealedSegments++
		}
	}
	c := le.log.Counters()
	st.LateEvents = c.LateApplied
	st.Retractions = c.Retractions
	st.Compactions = c.Compactions
	return st
}

var _ Engine = (*LiveEngine)(nil)
