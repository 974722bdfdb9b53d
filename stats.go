// Engine statistics snapshots. A serving layer (metrics endpoints, load
// shedders, dashboards) needs one consistent view of an engine's counters
// instead of poking IOTotals, IndexBytes and the buffer pool separately;
// EngineStats is that view, and every Engine — registry backends,
// segmented engines and LiveEngine — produces it with Stats(). Snapshots
// are safe to take while queries run and while a LiveEngine ingests: every
// consolidated counter is atomic or taken under the owning lock.

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
	// IO is the engine's cumulative simulated disk traffic (IOTotals).
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
	// holds instants); zero for unsegmented engines.
	Segments int
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
// both sides), its index footprint and its cumulative simulated I/O.
type ShardStats struct {
	Shard      int
	Objects    int
	Contacts   int
	IndexBytes int64
	IO         IOStats
}

// Sharded is implemented by engines built from object shards (the
// "shard:*" backends and sharded LiveEngines). Callers obtain it by type
// assertion from an Engine.
type Sharded interface {
	// ShardStats returns one entry per shard in shard order.
	ShardStats() []ShardStats
}

func (e *engine) Stats() EngineStats {
	c, numTicks := e.pinned()
	return coreStats(e.name, e.numObjects, numTicks, c)
}

// coreStats is the part of a snapshot every engine reads off its (pinned)
// core; the segmented, sharded and live wrappers add their own fields.
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
	return st
}
