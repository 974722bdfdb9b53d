package streach_test

import (
	"context"
	"testing"

	"streach"
)

// TestParallelSweepRaceWithIngest drives large-frontier queries through a
// live disk-resident engine while the appender seals and compacts segments
// (run under -race in CI). Two invariants are asserted: answers over the
// stable prefix match the ground truth throughout, and the I/O deltas of
// the queries sum to the shared buffer pool's counters exactly — nothing on
// the ingest side ever touches the pool's hit/miss counters (builds only
// write), so the pool delta must equal the reader's accumulated delta to
// the page.
func TestParallelSweepRaceWithIngest(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 256, NumTicks: 240, Seed: 99,
	})
	fullOracle := ds.Contacts().Oracle()
	pool := streach.NewBufferPool(96)
	le, err := streach.NewLiveEngine("bidir:reachgraph", ds.NumObjects(), ds.Env(), ds.ContactDist(), streach.Options{
		SegmentTicks:  24,
		Pool:          pool,
		CompactEvents: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const stablePrefix = 150
	feedLive(t, le, ds, stablePrefix+10)

	ctx := context.Background()
	// A full-prefix reachable set: the frontier the planner carries from
	// slab to slab grows to most of the population.
	if _, err := le.ReachableSet(ctx, 0, streach.NewInterval(0, stablePrefix)); err != nil {
		t.Fatal(err)
	}

	// Appender: seal the rest of the feed and keep dropping late contact
	// events behind the frontier — but beyond the stable prefix, so reader
	// answers over [0, stablePrefix] stay pinned — tripping the
	// CompactEvents threshold into concurrent compactions.
	done := make(chan error, 1)
	go func() {
		positions := make([]streach.Point, ds.NumObjects())
		for tk := le.NumTicks(); tk < 240; tk++ {
			for o := range positions {
				positions[o] = ds.Position(streach.ObjectID(o), streach.Tick(tk))
			}
			if err := le.AddInstant(positions); err != nil {
				done <- err
				return
			}
			late := streach.Tick(stablePrefix + 2 + tk%8)
			if _, err := le.Ingest([]streach.ContactEvent{
				{Tick: late, A: streach.ObjectID(tk % 200), B: streach.ObjectID(200 + tk%56)},
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
		Count: 64, MinLen: stablePrefix / 2, MaxLen: stablePrefix, Seed: 41,
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
	}
	ps := pool.Stats()
	if gotMisses := ps.Misses - base.Misses; gotMisses != reads {
		t.Errorf("query accountants saw %d pool misses, pool counted %d", reads, gotMisses)
	}
	if gotHits := ps.Hits - base.Hits; gotHits != hits {
		t.Errorf("query accountants saw %d pool hits, pool counted %d", hits, gotHits)
	}
	if le.Stats().Compactions == 0 {
		t.Error("no compaction ran during the race window")
	}
}
