// The sharding experiment: scatter-gather coordinators ("shard:<K>:*")
// over the clustered-mobility preset, sweeping shard count and partitioner.
// Each point opens shard:<K>:<partitioner>:reachgraph over the same
// dataset, times the partition-and-build, and drives a steady-state
// large-set workload through it; its records (shards, partitioner,
// cross_shard_ratio, shard_build_ms, latency percentiles) feed the
// machine-readable perf trajectory (BENCH_shard.json) validated by CI.
package bench

import (
	"context"
	"fmt"
	"time"

	"streach"
)

// shardBase is the disk-resident index family every sharding point wraps,
// so the only variables are the shard count and the cut.
const shardBase = "reachgraph"

// shardPoints is the (K, partitioner) grid the experiment sweeps. K = 1
// is the unsharded baseline under both cuts (they coincide there, but
// both rows keep the series aligned for downstream tooling).
var shardPoints = []struct {
	shards      int
	partitioner string
}{
	{1, "hash"}, {2, "hash"}, {4, "hash"},
	{1, "spatial"}, {2, "spatial"}, {4, "spatial"},
}

// Clustered returns the cached clustered-mobility dataset the sharding
// experiment partitions: objects orbit per-cluster home discs with a
// rare roaming leg, so reachable sets stay cluster-local and a spatial
// cut can isolate almost all frontier traffic inside one shard. The
// preset is pinned (not scaled by Options) because its cluster count,
// roam rate and seed are what the CI cross-shard-ratio gate asserts on.
func (l *Lab) Clustered() *streach.Dataset {
	if l.clusteredDS == nil {
		l.clusteredDS = streach.GenerateClustered(streach.ClusteredOptions{
			NumObjects:  384,
			NumTicks:    288,
			NumClusters: 12,
			RoamProb:    0.002,
			Seed:        57,
		})
	}
	return l.clusteredDS
}

// ShardRecords sweeps shardPoints over the clustered preset and returns
// one Record per (K, partitioner) point. The workload is large
// ReachableSet queries (interval = a third of the time domain) over a
// rotating source mix; each engine gets one warm pass first so the
// measured pass sees steady-state per-shard pools and the decoded records
// kept with them — the serving regime the coordinator's resource split is
// built for. The sweep runs once per Lab.
func (l *Lab) ShardRecords() []Record {
	if l.shardRecs != nil {
		return l.shardRecs
	}
	ds := l.Clustered()
	iv := streach.NewInterval(0, streach.Tick(ds.NumTicks()/3))
	ctx := context.Background()
	nq := l.opts.Queries

	var recs []Record
	for _, pt := range shardPoints {
		backend := fmt.Sprintf("shard:%d:%s:%s", pt.shards, pt.partitioner, shardBase)
		var e streach.Engine
		build := timed(func() {
			var err error
			e, err = streach.Open(backend, ds, streach.Options{})
			if err != nil {
				panic(fmt.Sprintf("bench: open %s over %s: %v", backend, ds.Name(), err))
			}
		})
		src := func(i int) streach.ObjectID {
			return streach.ObjectID(i * 7 % ds.NumObjects())
		}
		for i := 0; i < nq; i++ { // warm pass
			if _, err := e.ReachableSet(ctx, src(i), iv); err != nil {
				panic(fmt.Sprintf("bench: sharding warmup %s: %v", backend, err))
			}
		}
		var pages, hits int64
		var normalized, expanded float64
		var lats []time.Duration
		start := time.Now()
		for i := 0; i < nq; i++ {
			r, err := e.ReachableSet(ctx, src(i), iv)
			if err != nil {
				panic(fmt.Sprintf("bench: sharding %s src %d: %v", backend, src(i), err))
			}
			lats = append(lats, r.Latency)
			pages += r.IO.RandomReads + r.IO.SequentialReads
			hits += r.IO.BufferHits
			normalized += r.IO.Normalized
			expanded += float64(len(r.Objects))
		}
		elapsed := time.Since(start)
		p50, p95 := latencyPercentiles(lats)
		hitRate := 0.0
		if hits+pages > 0 {
			hitRate = float64(hits) / float64(hits+pages)
		}
		st := e.Stats()
		recs = append(recs, Record{
			Experiment:           "sharding",
			Backend:              e.Name(),
			Dataset:              ds.Name(),
			Workers:              1,
			Queries:              nq,
			QueriesPerSec:        float64(nq) / elapsed.Seconds(),
			P50LatencyUS:         p50,
			P95LatencyUS:         p95,
			PagesRead:            pages,
			NormalizedIOPerQuery: normalized / float64(nq),
			CacheHitRate:         hitRate,
			ExpandedPerQuery:     expanded / float64(nq),
			Shards:               pt.shards,
			Partitioner:          pt.partitioner,
			CrossShardRatio:      st.CrossShardRatio,
			ShardBuildMS:         float64(build) / float64(time.Millisecond),
		})
	}
	l.shardRecs = recs
	return recs
}

// Sharding renders the scatter-gather sweep as a table (the
// human-readable view of ShardRecords).
func (l *Lab) Sharding() *Table {
	t := &Table{
		ID:      "sharding",
		Title:   "Sharded engines and scatter-gather, clustered mobility",
		Columns: []string{"Backend", "Part", "K", "Cross", "Build", "Set/q", "p50", "p95", "Speedup"},
	}
	recs := l.ShardRecords()
	base := map[string]float64{} // partitioner → its K=1 p50
	for _, rec := range recs {
		if rec.Shards == 1 {
			base[rec.Partitioner] = rec.P50LatencyUS
		}
	}
	var hash4, spatial4 Record
	for _, rec := range recs {
		speedup := "—"
		if b := base[rec.Partitioner]; b > 0 && rec.P50LatencyUS > 0 {
			speedup = fmt.Sprintf("%.2fx", b/rec.P50LatencyUS)
		}
		t.AddRow(
			rec.Backend, rec.Partitioner, fmt.Sprintf("%d", rec.Shards),
			fmt.Sprintf("%.3f", rec.CrossShardRatio),
			fmt.Sprintf("%.0fms", rec.ShardBuildMS),
			fmt.Sprintf("%.1f", rec.ExpandedPerQuery),
			fmt.Sprintf("%.0fµs", rec.P50LatencyUS),
			fmt.Sprintf("%.0fµs", rec.P95LatencyUS),
			speedup,
		)
		if rec.Shards == 4 {
			switch rec.Partitioner {
			case "hash":
				hash4 = rec
			case "spatial":
				spatial4 = rec
			}
		}
	}
	if hash4.Shards > 0 && spatial4.Shards > 0 {
		t.AddNote("cross-shard contact ratio at K=4: spatial %.3f vs hash %.3f — the Z-order",
			spatial4.CrossShardRatio, hash4.CrossShardRatio)
		t.AddNote("cut keeps each cluster's contacts inside one shard, so scatter rounds")
		t.AddNote("rarely hand frontier objects across the cut")
	}
	t.AddNote("speedup is each row's p50 against the same partitioner's K=1 point; the")
	t.AddNote("win is resource locality, not parallelism — each shard owns a private")
	t.AddNote("buffer pool; where its region's index fits, pages stay resident and the")
	t.AddNote("records decoded from them are kept from query to query")
	return t
}
