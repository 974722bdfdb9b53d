package streach_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"streach"
)

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
					slices.Sort(want)
					if !slices.Equal(sr.Objects, want) {
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
