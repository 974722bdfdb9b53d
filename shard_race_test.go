package streach_test

import (
	"context"
	"sync"
	"testing"

	"streach"
)

// TestShardScatterGatherRaceWithIngest drives scatter-gather queries
// through a hash-sharded live engine — every shard expanding concurrently
// on its own ingest lane — while the appender seals lanes and drops late
// events behind the frontier (run under -race in CI). All lanes draw on one
// shared buffer pool, and the per-shard accountants summed into each
// query's delta must match the pool's counter movement exactly: delta ==
// total == pool, even while sealing builds run.
func TestShardScatterGatherRaceWithIngest(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 192, NumTicks: 200, Seed: 77,
	})
	fullOracle := ds.Contacts().Oracle()
	pool := streach.NewBufferPool(128)
	le, err := streach.NewLiveEngine("shard:4:reachgraph", ds.NumObjects(), ds.Env(), ds.ContactDist(), streach.Options{
		SegmentTicks:  24,
		Pool:          pool,
		CompactEvents: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const stablePrefix = 120
	feedLive(t, le, ds, stablePrefix+10)

	ctx := context.Background()
	// Appender: seal the rest of the feed and keep dropping late cross-lane
	// contact events beyond the stable prefix, so reader answers over
	// [0, stablePrefix] stay pinned while lanes compact concurrently.
	done := make(chan error, 1)
	go func() {
		positions := make([]streach.Point, ds.NumObjects())
		for tk := le.NumTicks(); tk < 200; tk++ {
			for o := range positions {
				positions[o] = ds.Position(streach.ObjectID(o), streach.Tick(tk))
			}
			if err := le.AddInstant(positions); err != nil {
				done <- err
				return
			}
			late := streach.Tick(stablePrefix + 2 + tk%8)
			if _, err := le.Ingest([]streach.ContactEvent{
				{Tick: late, A: streach.ObjectID(tk % 150), B: streach.ObjectID(150 + tk%42)},
			}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// Single reader stream: every query's IO delta accumulates; with no
	// other pool reader, the sum must equal the pool counter movement.
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(), NumTicks: stablePrefix,
		Count: 48, MinLen: stablePrefix / 2, MaxLen: stablePrefix, Seed: 43,
	})
	base := pool.Stats()
	var reads, hits int64
	appending := true
	for i := 0; appending || i < len(work); i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			appending = false
		default:
		}
		q := work[i%len(work)]
		r, err := le.Reachable(ctx, q)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if want := fullOracle.Reachable(q); r.Reachable != want {
			t.Fatalf("answer for %v diverged mid-ingest: got %v, want %v", q, r.Reachable, want)
		}
		reads += r.IO.RandomReads + r.IO.SequentialReads
		hits += r.IO.BufferHits
		if i%8 == 0 {
			sr, err := le.ReachableSet(ctx, streach.ObjectID(i%ds.NumObjects()), streach.NewInterval(0, stablePrefix-1))
			if err != nil {
				t.Fatal(err)
			}
			reads += sr.IO.RandomReads + sr.IO.SequentialReads
			hits += sr.IO.BufferHits
		}
	}
	ps := pool.Stats()
	if gotMisses := ps.Misses - base.Misses; gotMisses != reads {
		t.Errorf("query accountants saw %d pool misses, pool counted %d", reads, gotMisses)
	}
	if gotHits := ps.Hits - base.Hits; gotHits != hits {
		t.Errorf("query accountants saw %d pool hits, pool counted %d", hits, gotHits)
	}
	st := le.Stats()
	if st.Compactions == 0 {
		t.Error("no lane compacted during the race window")
	}
	if st.CrossShardFrontier == 0 {
		t.Error("no frontier object ever crossed the shard cut")
	}
}

// TestShardFrozenConcurrentReaders hammers one frozen sharded engine with
// concurrent readers (run under -race in CI): the scatter-gather scratch
// state is per-query, so answers must stay exact and the shared pool's
// counter movement must equal the accumulated query deltas.
func TestShardFrozenConcurrentReaders(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 96, NumTicks: 160, Seed: 55,
	})
	oracle := ds.Contacts().Oracle()
	pool := streach.NewBufferPool(64)
	eng, err := streach.Open("shard:4:spatial:reachgraph", ds, streach.Options{
		Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(), NumTicks: ds.NumTicks(),
		Count: 32, MinLen: 40, MaxLen: ds.NumTicks(), Seed: 17,
	})
	base := pool.Stats()
	var mu sync.Mutex
	var reads, hits int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var myReads, myHits int64
			for i, q := range work {
				r, err := eng.Reachable(ctx, q)
				if err != nil {
					t.Errorf("%v: %v", q, err)
					return
				}
				if want := oracle.Reachable(q); r.Reachable != want {
					t.Errorf("reader %d: %v got %v, want %v", w, q, r.Reachable, want)
					return
				}
				myReads += r.IO.RandomReads + r.IO.SequentialReads
				myHits += r.IO.BufferHits
				if (i+w)%6 == 0 {
					sr, err := eng.ReachableSet(ctx, q.Src, q.Interval)
					if err != nil {
						t.Error(err)
						return
					}
					want := oracle.ReachableSet(q.Src, q.Interval)
					sortIDs(want)
					if !equalIDs(sr.Objects, want) {
						t.Errorf("reader %d set %d %v diverged", w, q.Src, q.Interval)
						return
					}
					myReads += sr.IO.RandomReads + sr.IO.SequentialReads
					myHits += sr.IO.BufferHits
				}
			}
			mu.Lock()
			reads += myReads
			hits += myHits
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	ps := pool.Stats()
	if gotMisses := ps.Misses - base.Misses; gotMisses != reads {
		t.Errorf("query accountants saw %d pool misses, pool counted %d", reads, gotMisses)
	}
	if gotHits := ps.Hits - base.Hits; gotHits != hits {
		t.Errorf("query accountants saw %d pool hits, pool counted %d", hits, gotHits)
	}
}
