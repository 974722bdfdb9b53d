package streach_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"streach"
)

// The live write-path microbenchmarks run on serve-live's shape: an
// 800-object random-waypoint feed, live:reachgraph-mem in 128-tick slabs,
// 1000 instants preloaded (seven sealed slabs and a 104-tick tail).
// Compaction stays manual, so every late batch is a patch and nothing else.

var liveBenchFeed = sync.OnceValue(func() *streach.Dataset {
	return streach.GenerateRandomWaypoint(streach.RWPOptions{NumObjects: 800, NumTicks: 1000, Seed: 29})
})

// preloadedLive returns a live engine fed the whole benchmark feed.
func preloadedLive(b *testing.B) (*streach.LiveEngine, *streach.Dataset) {
	ds := liveBenchFeed()
	le, err := streach.NewLiveEngine("reachgraph-mem", ds.NumObjects(), ds.Env(), ds.ContactDist(),
		streach.Options{SegmentTicks: 128})
	if err != nil {
		b.Fatal(err)
	}
	feedLive(b, le, ds, ds.NumTicks())
	return le, ds
}

// BenchmarkLiveLateBatch is one 32-event late batch into the last three
// slabs (two sealed, plus the tail), as serve-live posts them: 64 fixed
// batches, added on one pass over them and retracted on the next.
func BenchmarkLiveLateBatch(b *testing.B) {
	le, ds := preloadedLive(b)
	rng := rand.New(rand.NewSource(4))
	frontier := ds.NumTicks()
	batches := make([][]streach.ContactEvent, 64)
	for i := range batches {
		batches[i] = make([]streach.ContactEvent, 32)
		for k := range batches[i] {
			a := streach.ObjectID(rng.Intn(ds.NumObjects()))
			c := (a + 1 + streach.ObjectID(rng.Intn(ds.NumObjects()-1))) % streach.ObjectID(ds.NumObjects())
			batches[i][k] = streach.ContactEvent{Tick: streach.Tick(frontier - 2 - rng.Intn(3*128-1)), A: a, B: c}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := batches[i%len(batches)]
		retract := i/len(batches)%2 == 1
		for k := range batch {
			batch[k].Retract = retract
		}
		if _, err := le.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveAppendThenQuery is one frontier append followed by one point
// query over the 200 instants behind the new frontier — the first view
// taken after an append. Appends replay the feed's first 256 instants, and
// seal a slab every 128 of them.
func BenchmarkLiveAppendThenQuery(b *testing.B) {
	le, ds := preloadedLive(b)
	rng := rand.New(rand.NewSource(5))
	frames := make([][]streach.Point, 256)
	for tk := range frames {
		frames[tk] = make([]streach.Point, ds.NumObjects())
		for o := range frames[tk] {
			frames[tk][o] = ds.Position(streach.ObjectID(o), streach.Tick(tk))
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := le.AddInstant(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
		hi := streach.Tick(le.NumTicks() - 1)
		src := streach.ObjectID(rng.Intn(ds.NumObjects()))
		q := streach.Query{Src: src, Dst: (src + 1) % streach.ObjectID(ds.NumObjects()), Interval: streach.NewInterval(hi-199, hi)}
		if _, err := le.Reachable(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}
