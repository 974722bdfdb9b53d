// Engine statistics snapshots. A serving layer (metrics endpoints, load
// shedders, dashboards) needs one consistent view of an engine's counters:
// EngineStats is that view, and every Engine — registry backends, segmented
// and sharded engines, LiveEngine — produces it with Stats(), read off the
// one core a query would pin. Snapshots are safe to take while queries run
// and while a LiveEngine ingests: every consolidated counter is atomic or
// taken under the owning lock.

package streach

// EngineStats is a point-in-time snapshot of an engine's observable state.
type EngineStats struct {
	// Backend is the engine's registry name (Engine.Name).
	Backend string
	// NumObjects and NumTicks are the time-domain dimensions. For a
	// LiveEngine NumTicks grows with the feed: it counts the instants
	// ingested before the snapshot.
	NumObjects int
	NumTicks   int
	// IndexBytes is the simulated on-disk index size (summed across
	// segments for segmented and live engines); zero for memory-resident
	// backends.
	IndexBytes int64
	// IO is the engine's cumulative simulated disk traffic (zero for
	// memory-resident backends); the IO deltas of successfully evaluated
	// queries sum to it.
	IO IOStats
	// HasPool reports whether the engine's index stores draw on a buffer
	// pool; Pool is that pool's global counters, summed when the stores
	// draw on several (per-shard private pools). Engines opened with a
	// shared Options.Pool report the pool-wide counters (the pool may be
	// serving other engines too). A LiveEngine has stores, and so a pool to
	// report, from its first sealed segment on.
	HasPool bool
	Pool    PoolStats
	// Segments is the number of time slabs a segmented engine plans over
	// (for a LiveEngine: sealed segments plus the mutable tail when it
	// holds instants); zero for unsegmented engines. SegmentDetails holds
	// one entry per slab in ascending time order, summed across shards
	// when every shard is a slab chain over the same spans (a sharded
	// LiveEngine, "shard:<K>:segmented:*"); nil for unsegmented engines.
	Segments       int
	SegmentDetails []SegmentStats
	// SealedSegments is the number of immutable sealed segments of a
	// LiveEngine; zero elsewhere.
	SealedSegments int
	// DeltaEvents is the live delta-log depth: effective late/retraction
	// events pending against sealed segments, awaiting compaction.
	// DirtySegments is the number of sealed segments carrying such deltas.
	// Zero for frozen engines.
	DeltaEvents   int
	DirtySegments int
	// LateEvents, Retractions and Compactions are a LiveEngine's
	// cumulative out-of-order ingest counters: contact adds accepted
	// behind the frontier, contact instants retracted, and dirty segments
	// re-sealed. Zero for frozen engines.
	LateEvents  int64
	Retractions int64
	Compactions int64
	// Shards is the shard count of a sharded engine ("shard:*" backends
	// and sharded LiveEngines); zero for unsharded engines. Partitioner
	// names the scheme that produced the object assignment ("hash" or
	// "spatial").
	Shards      int
	Partitioner string
	// CrossShardRatio is the fraction of contacts crossing the shard cut
	// (each such contact is duplicated into both endpoint shards) — the
	// static partition-quality metric: ~1-1/K for a uniform random cut,
	// near zero for a spatial cut of clustered mobility.
	CrossShardRatio float64
	// CrossShardFrontier counts the boundary objects queries handed across
	// the shard cut so far — the cumulative scatter-gather traffic.
	CrossShardFrontier int64
	// ShardDetails holds one entry per shard in shard order; nil for
	// unsharded engines.
	ShardDetails []ShardStats
}

// ShardStats describes one shard of a sharded engine: its owned object
// count, the contacts of its sub-network (cross-shard contacts counted on
// both sides; on a LiveEngine, the contact adds routed to the lane so far),
// its index footprint and its cumulative simulated I/O.
type ShardStats struct {
	Shard      int
	Objects    int
	Contacts   int
	IndexBytes int64
	IO         IOStats
}

// SegmentStats describes one time-slab segment of a segmented engine: its
// global tick span, the cumulative simulated I/O its segment has served,
// and its on-disk size. The per-segment counters make planner locality
// observable — a query must only ever charge the segments overlapping its
// interval. For a LiveEngine, DeltaEvents is the segment's pending
// delta-log depth (late/retracted contacts not yet compacted into the
// sealed index); zero for frozen segments. The mutable tail of a
// LiveEngine never charges I/O.
type SegmentStats struct {
	Span        Interval
	IO          IOStats
	IndexBytes  int64
	DeltaEvents int
}

func (e *engine) Stats() EngineStats {
	c, numTicks := e.pinned()
	return coreStats(e.name, e.numObjects, numTicks, c)
}

// coreStats is the snapshot of an engine whose queries pin c: the footprint
// and counters every core has, plus what the outermost combinator adds —
// the cut of a sharded core, the slabs of a segmented one or of the slab
// chains a sharded core runs over.
func coreStats(name string, numObjects, numTicks int, c core) EngineStats {
	d := c.disk()
	st := EngineStats{
		Backend:    name,
		NumObjects: numObjects,
		NumTicks:   numTicks,
		IndexBytes: d.indexBytes(),
		IO:         statsOf(d.ioTotals()),
	}
	st.Pool, st.HasPool = d.poolStats()
	if sh, ok := c.(*shardCore); ok {
		sh.fillStats(&st)
	}
	if chains := slabChains(c); chains != nil {
		st.Segments = len(chains[0].slabs)
		st.SegmentDetails = segmentStats(chains)
		for _, seg := range chains {
			for _, s := range seg.slabs {
				st.DeltaEvents += s.pending
				if s.pending > 0 {
					st.DirtySegments++
				}
			}
		}
	}
	return st
}

// slabChains returns the segmented cores c plans over: c itself, or every
// part of a sharded c when all are slab chains; nil otherwise.
func slabChains(c core) []*segmentedCore {
	switch c := c.(type) {
	case *segmentedCore:
		return []*segmentedCore{c}
	case *shardCore:
		chains := make([]*segmentedCore, len(c.parts))
		for i, p := range c.parts {
			seg, ok := p.(*segmentedCore)
			if !ok {
				return nil
			}
			chains[i] = seg
		}
		return chains
	}
	return nil
}
