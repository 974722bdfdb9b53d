package reachgrid

import (
	"context"
	"testing"

	"streach/internal/mobility"
	"streach/internal/pagefile"
	"streach/internal/queries"
)

// benchGrid is the microbenchmarks' index (default Params over RWP 400 ×
// 1000) and 256 queries of 60–240 ticks.
func benchGrid(b *testing.B) (*Index, []queries.Query) {
	b.Helper()
	d := mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: 400, NumTicks: 1000, Seed: 20120827})
	ix, err := Build(d, Params{})
	if err != nil {
		b.Fatal(err)
	}
	return ix, queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: d.NumObjects(), NumTicks: d.NumTicks(),
		Count: 256, MinLen: 60, MaxLen: 240, Seed: 3,
	})
}

// BenchmarkSweep is one guided point query (ReachCounted), cycling
// through the workload.
func BenchmarkSweep(b *testing.B) {
	ix, work := benchGrid(b)
	ctx := context.Background()
	var acct pagefile.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.ReachCounted(ctx, work[i%len(work)], &acct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSemProfile is one hop-counting sweep (AppendSemProfileFrom,
// budget 4) from the query's source, stopping at its destination.
func BenchmarkSemProfile(b *testing.B) {
	ix, work := benchGrid(b)
	ctx := context.Background()
	var acct pagefile.Stats
	seeds := make([]queries.SeedState, 1)
	var prof []queries.ProfileEntry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := work[i%len(work)]
		seeds[0] = queries.SeedState{Obj: q.Src}
		var err error
		if prof, _, err = ix.AppendSemProfileFrom(ctx, prof[:0], seeds, q.Interval, 4, q.Dst, &acct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodePositions loads every cell of one bucket of a D1-sized
// dataset (RWP 800 objects, one 20-tick bucket, default Params) into a
// fresh bucket buffer: each object's samples are decoded once and its
// repeats in later cells stepped over, as a sweep that reached every cell
// would. Reads are pool hits; SetBytes counts the cell blobs' bytes.
func BenchmarkDecodePositions(b *testing.B) {
	d := mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: 800, NumTicks: 20, Seed: 20120827})
	ix, err := Build(d, Params{})
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	for _, ref := range ix.buckets[0].cellRefs {
		if !ref.Null() {
			size += int64(ref.Bytes)
		}
	}
	sc, acct := ix.begin(nil)
	defer ix.pool.Put(sc)
	load := func() {
		sc.resetBucket(ix.numObjects, ix.grid.NumCells())
		for cell := range ix.buckets[0].cellRefs {
			if err := ix.loadCell(0, cell, sc, acct); err != nil {
				b.Fatal(err)
			}
		}
	}
	load() // the arena's last array may hold less than one bucket once
	load()
	if len(sc.segs) != d.NumObjects() {
		b.Fatalf("buffered %d segments of %d objects", len(sc.segs), d.NumObjects())
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load()
	}
}
