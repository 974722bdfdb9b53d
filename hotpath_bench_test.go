package streach_test

import (
	"context"
	"testing"

	"streach"
)

// The hot-path microbenchmarks run the standard workload through the
// rewritten traversal cores on the RWP48 dataset (reachbench's tiny
// preset: 48 objects, 240 ticks). They report allocations: the memory
// backends and disk ReachGraph must sit at 0 allocs/op in steady state
// (pinned by TestHotpathSteadyStateAllocs below).

func hotpathDataset() *streach.Dataset {
	return streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 48, NumTicks: 240, Seed: 48,
	})
}

func hotpathWorkload(ds *streach.Dataset) []streach.Query {
	return streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(),
		NumTicks:   ds.NumTicks(),
		Count:      32,
		MinLen:     20,
		MaxLen:     ds.NumTicks() / 2,
		Seed:       7,
	})
}

func benchmarkHotpath(b *testing.B, backend string, opts streach.Options) {
	ds := hotpathDataset()
	e, err := streach.Open(backend, ds, opts)
	if err != nil {
		b.Fatal(err)
	}
	work := hotpathWorkload(ds)
	ctx := context.Background()
	for _, q := range work { // warm: pool pages, scratch high-water marks
		if _, err := e.Reachable(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Reachable(ctx, work[i%len(work)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotpathReachGraphBMBFS(b *testing.B) {
	benchmarkHotpath(b, "reachgraph", streach.Options{})
}

func BenchmarkHotpathReachGraphMemBMBFS(b *testing.B) {
	benchmarkHotpath(b, "reachgraph-mem", streach.Options{})
}

func BenchmarkHotpathReachGridSweep(b *testing.B) {
	benchmarkHotpath(b, "reachgrid", streach.Options{})
}

func BenchmarkHotpathSegmentedPlanner(b *testing.B) {
	benchmarkHotpath(b, "segmented:reachgraph", streach.Options{SegmentTicks: 60})
}

func BenchmarkHotpathSegmentedPlannerMem(b *testing.B) {
	benchmarkHotpath(b, "segmented:reachgraph-mem", streach.Options{SegmentTicks: 60})
}

// The bidirectional planner benchmarks pit "bidir:*" against the forward
// planner on the same dataset. Long-interval queries are where the
// backward frontier pays: the forward frontier saturates while the
// destination's deliverer set stays small.

func hotpathLongWorkload(ds *streach.Dataset) []streach.Query {
	return streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(),
		NumTicks:   ds.NumTicks(),
		Count:      32,
		MinLen:     3 * ds.NumTicks() / 4,
		MaxLen:     ds.NumTicks(),
		Seed:       7,
	})
}

func benchmarkLongInterval(b *testing.B, backend string, opts streach.Options) {
	ds := hotpathDataset()
	e, err := streach.Open(backend, ds, opts)
	if err != nil {
		b.Fatal(err)
	}
	work := hotpathLongWorkload(ds)
	ctx := context.Background()
	for _, q := range work {
		if _, err := e.Reachable(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Reachable(ctx, work[i%len(work)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBidirReachGraph(b *testing.B) {
	benchmarkLongInterval(b, "bidir:reachgraph", streach.Options{SegmentTicks: 60})
}

func BenchmarkBidirReachGraphMem(b *testing.B) {
	benchmarkLongInterval(b, "bidir:reachgraph-mem", streach.Options{SegmentTicks: 60})
}

func BenchmarkBidirForwardBaseline(b *testing.B) {
	benchmarkLongInterval(b, "segmented:reachgraph", streach.Options{SegmentTicks: 60})
}

// The large-frontier benchmarks run a larger population than the hotpath
// dataset.
func parallelSweepDataset() *streach.Dataset {
	return streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 256, NumTicks: 240, Seed: 56,
	})
}

// BenchmarkParallelSweepSerial is the cross-segment planner's large-frontier
// benchmark: long point queries whose carried frontier grows to hundreds of
// objects.
func BenchmarkParallelSweepSerial(b *testing.B) {
	ds := parallelSweepDataset()
	e, err := streach.Open("segmented:reachgraph-mem", ds, streach.Options{SegmentTicks: 40})
	if err != nil {
		b.Fatal(err)
	}
	work := hotpathLongWorkload(ds)
	ctx := context.Background()
	for _, q := range work {
		if _, err := e.Reachable(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Reachable(ctx, work[i%len(work)]); err != nil {
			b.Fatal(err)
		}
	}
}

// The sharding benchmarks measure the scatter-gather planner against the
// single-engine baseline on large reachable-set queries — the workload the
// partitioned design targets (point queries keep their serial fast path at
// K=1 and pay hand-off rounds at K>1).

func benchmarkShardSet(b *testing.B, backend string) {
	ds := parallelSweepDataset()
	e, err := streach.Open(backend, ds, streach.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	iv := streach.NewInterval(0, streach.Tick(3*ds.NumTicks()/4))
	for src := streach.ObjectID(0); src < 4; src++ { // warm
		if _, err := e.ReachableSet(ctx, src, iv); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ReachableSet(ctx, streach.ObjectID(i%ds.NumObjects()), iv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardSetBaseline1(b *testing.B) { benchmarkShardSet(b, "shard:1:reachgraph") }

func BenchmarkShardSetHash4(b *testing.B) { benchmarkShardSet(b, "shard:4:reachgraph") }

func BenchmarkShardSetSpatial4(b *testing.B) { benchmarkShardSet(b, "shard:4:spatial:reachgraph") }

// The clustered benchmarks run the workload the partitioned design is
// built for: objects orbit home regions, so a spatial cut keeps almost
// every contact — and every query's expansion — shard-local. The win on a
// single core is resource locality, not parallelism: each shard owns a
// private buffer pool sized like the monolith's, and its region-local
// working set fits where the monolith's union of all
// regions cycles, so the sharded engine answers from resident pages while
// the single engine re-reads them on every query.
func clusteredBenchDataset() *streach.Dataset {
	return streach.GenerateClustered(streach.ClusteredOptions{
		NumObjects: 384, NumTicks: 288, NumClusters: 12, RoamProb: 0.002, Seed: 57,
	})
}

func benchmarkShardClustered(b *testing.B, backend string) {
	ds := clusteredBenchDataset()
	e, err := streach.Open(backend, ds, streach.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	iv := streach.NewInterval(0, streach.Tick(ds.NumTicks()/3))
	for src := streach.ObjectID(0); src < 8; src++ { // warm
		if _, err := e.ReachableSet(ctx, src, iv); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ReachableSet(ctx, streach.ObjectID(i*7%ds.NumObjects()), iv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardClusteredBaseline1(b *testing.B) {
	benchmarkShardClustered(b, "shard:1:reachgraph")
}

func BenchmarkShardClusteredSpatial4(b *testing.B) {
	benchmarkShardClustered(b, "shard:4:spatial:reachgraph")
}

func BenchmarkShardPointHash4(b *testing.B) {
	ds := parallelSweepDataset()
	e, err := streach.Open("shard:4:reachgraph", ds, streach.Options{})
	if err != nil {
		b.Fatal(err)
	}
	work := hotpathLongWorkload(ds)
	ctx := context.Background()
	for _, q := range work {
		if _, err := e.Reachable(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Reachable(ctx, work[i%len(work)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHotpathSteadyStateAllocs asserts the tentpole claim directly: once
// the pooled scratch is warm, point queries on the memory backends and on
// disk ReachGraph and ReachGrid perform zero heap
// allocations per evaluation — visited sets, frontier queues and object
// sets all come from the per-engine pools, and on disk so do the buffered
// partitions and the arena the visited records are decoded into, and the
// grid's buffered segments, position arena and directory table. The bidir
// and cross-segment planners are held to the same bar.
func TestHotpathSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts only hold un-instrumented")
	}
	ds := hotpathDataset()
	work := hotpathWorkload(ds)
	ctx := context.Background()
	// "shard:1:reachgraph-mem" pins the K=1 serial fast path: the
	// coordinator must delegate to its single child without touching the
	// scatter-gather scratch.
	for _, backend := range []string{
		"reachgraph-mem", "bidir:reachgraph-mem", "shard:1:reachgraph-mem",
		"reachgraph", "segmented:reachgraph", "bidir:reachgraph",
		"reachgrid", "segmented:reachgrid",
	} {
		e, err := streach.Open(backend, ds, streach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			for _, q := range work {
				if _, err := e.Reachable(ctx, q); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // warm the scratch pools to their high-water marks
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s: %.1f allocs per %d-query batch in steady state, want 0",
				backend, allocs, len(work))
		}
	}
}

// TestShardPlannerAllocsPerQuery bounds what the scatter-gather planner
// allocates: its rounds run owner by owner out of one pooled scratch, so a
// batch of 32 point and 32 set queries allocates per query (the set
// answers themselves), not per round or per owner task.
func TestShardPlannerAllocsPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts only hold un-instrumented")
	}
	const bound = 1000
	ds := hotpathDataset()
	work := hotpathWorkload(ds)
	ctx := context.Background()
	for _, backend := range []string{"shard:4:reachgraph", "shard:4:spatial:reachgraph"} {
		e, err := streach.Open(backend, ds, streach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			for _, q := range work {
				if _, err := e.Reachable(ctx, q); err != nil {
					t.Fatal(err)
				}
				if _, err := e.ReachableSet(ctx, q.Src, q.Interval); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // warm the scratch pools to their high-water marks
		allocs := testing.AllocsPerRun(20, run)
		t.Logf("%s: %.1f allocs per batch", backend, allocs)
		if allocs > bound {
			t.Errorf("%s: %.1f allocs per batch of %d point and %d set queries, want at most %d",
				backend, allocs, len(work), len(work), bound)
		}
	}
}
