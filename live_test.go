package streach_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"streach"
)

// replaySource generates the deterministic "feed" the live tests replay.
func replaySource(t testing.TB, objects, ticks int) *streach.Dataset {
	t.Helper()
	return streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: objects, NumTicks: ticks, Seed: 203,
	})
}

func feedLive(t testing.TB, le *streach.LiveEngine, ds *streach.Dataset, upto int) {
	t.Helper()
	positions := make([]streach.Point, ds.NumObjects())
	for tk := le.NumTicks(); tk < upto; tk++ {
		for o := range positions {
			positions[o] = ds.Position(streach.ObjectID(o), streach.Tick(tk))
		}
		if err := le.AddInstant(positions); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLiveEngineMatchesOracleAtCheckpoints replays a feed into LiveEngine
// and, at several checkpoints, asserts that every answer matches the
// ground-truth oracle over the engine's own snapshot — for every
// live-capable base backend, with no rebuild between appends (sealed
// segments only ever grow).
func TestLiveEngineMatchesOracleAtCheckpoints(t *testing.T) {
	ds := replaySource(t, 35, 360)
	ctx := context.Background()
	for _, base := range []string{"oracle", "reachgraph", "reachgraph-mem"} {
		le, err := streach.NewLiveEngine(base, ds.NumObjects(), ds.Env(), ds.ContactDist(), streach.Options{SegmentTicks: 64})
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		if le.Name() != "live:"+base {
			t.Errorf("Name = %q", le.Name())
		}
		prevSealed := 0
		for _, checkpoint := range []int{50, 130, 260, 360} {
			feedLive(t, le, ds, checkpoint)
			if got := le.NumTicks(); got != checkpoint {
				t.Fatalf("%s: NumTicks = %d, want %d", base, got, checkpoint)
			}
			if got := le.NumSealedSegments(); got < prevSealed {
				t.Fatalf("%s: sealed segments shrank %d -> %d", base, prevSealed, got)
			} else {
				prevSealed = got
			}
			oracle := le.Snapshot().Oracle()
			work := streach.RandomQueries(streach.WorkloadOptions{
				NumObjects: ds.NumObjects(), NumTicks: checkpoint,
				Count: 40, MinLen: 10, MaxLen: checkpoint, Seed: int64(checkpoint),
			})
			for _, q := range work {
				r, err := le.Reachable(ctx, q)
				if err != nil {
					t.Fatalf("%s %v: %v", base, q, err)
				}
				if want := oracle.Reachable(q); r.Reachable != want {
					t.Fatalf("%s disagrees with oracle on %v at tick %d: got %v, want %v",
						base, q, checkpoint, r.Reachable, want)
				}
				if !r.Evaluated {
					t.Fatalf("%s %v: not marked evaluated", base, q)
				}
			}
			for src := streach.ObjectID(0); src < 4; src++ {
				iv := streach.NewInterval(streach.Tick(10*src), streach.Tick(checkpoint-1))
				sr, err := le.ReachableSet(ctx, src, iv)
				if err != nil {
					t.Fatal(err)
				}
				want := oracle.ReachableSet(src, iv)
				sortIDs(want)
				if !equalIDs(sr.Objects, want) {
					t.Fatalf("%s set %d %v at tick %d: got %v, want %v",
						base, src, iv, checkpoint, sr.Objects, want)
				}
			}
		}
		if le.NumSealedSegments() != 360/64 {
			t.Errorf("%s: %d sealed segments after 360 ticks at width 64, want %d",
				base, le.NumSealedSegments(), 360/64)
		}
		if seg, ok := streach.Engine(le).(streach.Segmented); !ok {
			t.Errorf("%s: LiveEngine does not expose SegmentStats", base)
		} else if stats := seg.SegmentStats(); len(stats) == 0 {
			t.Errorf("%s: empty SegmentStats", base)
		}
	}
}

// TestLiveEngineQueryWhileIngesting runs readers concurrently with the
// appender across several seal boundaries (run under -race in CI). Queries
// over the already-complete prefix have stable answers — reachability over
// [lo, hi] depends only on the instants in [lo, hi] — so the readers check
// exact oracle equality while ingestion continues.
func TestLiveEngineQueryWhileIngesting(t *testing.T) {
	ds := replaySource(t, 25, 300)
	fullOracle := ds.Contacts().Oracle()
	le, err := streach.NewLiveEngine("reachgraph", ds.NumObjects(), ds.Env(), ds.ContactDist(), streach.Options{SegmentTicks: 32})
	if err != nil {
		t.Fatal(err)
	}
	const stablePrefix = 120
	feedLive(t, le, ds, stablePrefix) // several sealed slabs before readers start

	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(), NumTicks: stablePrefix,
		Count: 200, MinLen: 10, MaxLen: stablePrefix, Seed: 7,
	})
	ctx := context.Background()
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i = (i + 7) % len(work) {
				q := work[i]
				r, err := le.Reachable(ctx, q)
				if err != nil {
					errs <- err
					return
				}
				if want := fullOracle.Reachable(q); r.Reachable != want {
					t.Errorf("live answer for %v diverged mid-ingest: got %v, want %v",
						q, r.Reachable, want)
					return
				}
			}
		}(w)
	}
	// Keep appending across 300/32 ≈ 5 more seal boundaries while the
	// readers hammer the engine.
	feedLive(t, le, ds, 300)
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := le.NumSealedSegments(); got != 300/32 {
		t.Errorf("%d sealed segments, want %d", got, 300/32)
	}
}

// TestContactStreamSnapshotThenContinue covers the snapshot-then-continue
// contract of a LiveEngine's contact stream under concurrent readers (run
// under -race in CI): engines opened
// over a snapshot keep answering correctly while the stream ingests further
// instants and takes further snapshots.
func TestContactStreamSnapshotThenContinue(t *testing.T) {
	ds := replaySource(t, 25, 240)
	stream, err := streach.NewLiveEngine("oracle", ds.NumObjects(), ds.Env(), ds.ContactDist(), streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	positions := make([]streach.Point, ds.NumObjects())
	feed := func(upto int) {
		for tk := stream.NumTicks(); tk < upto; tk++ {
			for o := range positions {
				positions[o] = ds.Position(streach.ObjectID(o), streach.Tick(tk))
			}
			if err := stream.AddInstant(positions); err != nil {
				t.Fatal(err)
			}
		}
	}
	fullOracle := ds.Contacts().Oracle()
	ctx := context.Background()

	feed(120)
	snap := stream.Snapshot()
	e, err := streach.Open("reachgraph", snap, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(), NumTicks: 120,
		Count: 150, MinLen: 10, MaxLen: 120, Seed: 13,
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(work); i += 4 {
				r, err := e.Reachable(ctx, work[i])
				if err != nil {
					t.Errorf("%v: %v", work[i], err)
					return
				}
				if want := fullOracle.Reachable(work[i]); r.Reachable != want {
					t.Errorf("snapshot engine wrong on %v", work[i])
					return
				}
			}
		}(w)
	}
	// The stream continues — and takes further snapshots — while readers
	// query the engine built over the first snapshot.
	feed(240)
	later := stream.Snapshot()
	wg.Wait()
	if later.NumTicks() != 240 || snap.NumTicks() != 120 {
		t.Fatalf("snapshots report %d and %d ticks, want 240 and 120", later.NumTicks(), snap.NumTicks())
	}
	// The later snapshot serves the full domain correctly.
	e2, err := streach.Open("reachgraph", later, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(), NumTicks: 240,
		Count: 50, MinLen: 10, MaxLen: 240, Seed: 17,
	}) {
		r, err := e2.Reachable(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := fullOracle.Reachable(q); r.Reachable != want {
			t.Fatalf("second snapshot wrong on %v", q)
		}
	}
}

// TestLiveEngineRejectsUnfit pins the constructor's error surface.
func TestLiveEngineRejectsUnfit(t *testing.T) {
	env := streach.NewEnv(1000, 1000)
	if _, err := streach.NewLiveEngine("reachgrid", 10, env, 50, streach.Options{}); err == nil {
		t.Error("reachgrid (needs trajectories) must not open live")
	}
	if _, err := streach.NewLiveEngine("grail", 10, env, 50, streach.Options{}); err == nil {
		t.Error("grail (no frontier entry points) must not open live")
	}
	if _, err := streach.NewLiveEngine("nope", 10, env, 50, streach.Options{}); err == nil {
		t.Error("unknown backend must not open live")
	}
	if _, err := streach.NewLiveEngine("oracle", 0, env, 50, streach.Options{}); err == nil {
		t.Error("zero objects must not open live")
	}
	if _, err := streach.NewLiveEngine("oracle", 10, env, 0, streach.Options{}); err == nil {
		t.Error("zero contact distance must not open live")
	}
}

// TestLiveIOTotalsSurviveCompaction is the regression test for cumulative
// totals that ran backwards: a compaction swaps a dirty slab's sealed index
// for a rebuilt one, and the retired segment's store counters must stay in
// the sum. On a disk-resident base the deltas of all queries equal the
// totals before the compaction, the totals never decrease across it, the
// deltas still equal the totals after it, and Stats().IO is IOTotals()
// throughout.
func TestLiveIOTotalsSurviveCompaction(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{NumObjects: 60, NumTicks: 300, Seed: 5})
	le, err := streach.NewLiveEngine("reachgraph", ds.NumObjects(), ds.Env(), ds.ContactDist(),
		streach.Options{SegmentTicks: 64})
	if err != nil {
		t.Fatal(err)
	}
	feedLive(t, le, ds, ds.NumTicks())
	ctx := context.Background()
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(), NumTicks: ds.NumTicks(),
		Count: 200, MinLen: 10, MaxLen: 200, Seed: 9,
	})
	var sum streach.IOStats
	run := func(when string) {
		t.Helper()
		for _, q := range work {
			r, err := le.Reachable(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			sum.RandomReads += r.IO.RandomReads
			sum.SequentialReads += r.IO.SequentialReads
			sum.BufferHits += r.IO.BufferHits
		}
		tot := le.IOTotals()
		if tot.RandomReads != sum.RandomReads || tot.SequentialReads != sum.SequentialReads || tot.BufferHits != sum.BufferHits {
			t.Fatalf("%s: IOTotals %+v, sum of query deltas %+v", when, tot, sum)
		}
		if st := le.Stats().IO; st != tot {
			t.Fatalf("%s: Stats().IO %+v != IOTotals %+v", when, st, tot)
		}
	}
	run("before compaction")
	before := le.IOTotals()
	if before.RandomReads+before.SequentialReads+before.BufferHits == 0 {
		t.Fatal("200 queries on a disk-resident base charged no I/O")
	}
	// Three late contacts dirty two sealed slabs; compaction re-seals them.
	if _, err := le.Ingest([]streach.ContactEvent{
		{Tick: 10, A: 1, B: 2}, {Tick: 11, A: 3, B: 4}, {Tick: 100, A: 5, B: 6},
	}); err != nil {
		t.Fatal(err)
	}
	if st := le.Stats().IO; st != before {
		t.Fatalf("late ingest moved the totals: %+v -> %+v", before, st)
	}
	if n, err := le.Compact(); err != nil || n != 2 {
		t.Fatalf("Compact() = %d, %v; want 2 slabs re-sealed", n, err)
	}
	after := le.IOTotals()
	if after.RandomReads < before.RandomReads || after.SequentialReads < before.SequentialReads || after.BufferHits < before.BufferHits {
		t.Fatalf("IOTotals ran backwards across compaction: %+v -> %+v", before, after)
	}
	if st := le.Stats().IO; st != after {
		t.Fatalf("after compaction: Stats().IO %+v != IOTotals %+v", st, after)
	}
	run("after compaction")
}

// TestLiveQueryPinsOneView is the one-view-per-query rule as a property,
// meant for -race: hop-bounded and filtered queries over [0, 40] run while
// another goroutine keeps adding and retracting one marker contact at tick
// 60 of the same slab and compacting — so the slab flips between an
// all-capable oracle overlay and a hop-agnostic sealed index, while the
// contacts inside every query interval never change. Every answer must
// therefore equal the static oracle's; a query whose capability check and
// evaluation saw different slab lists shows up as a hop bound or a
// predicate silently ignored.
func TestLiveQueryPinsOneView(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{NumObjects: 30, NumTicks: 130, Seed: 77})
	ref, err := streach.Open("oracle", ds, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	iv := streach.NewInterval(0, 40)
	sems := []streach.Semantics{{MaxHops: 1}, {MaxHops: 2}, {MinDuration: 3}, {MinDuration: 2, MaxHops: 3}}
	for _, backend := range []string{"reachgraph-mem", "shard:2:reachgraph-mem"} {
		le, err := streach.NewLiveEngine(backend, ds.NumObjects(), ds.Env(), ds.ContactDist(),
			streach.Options{SegmentTicks: 64})
		if err != nil {
			t.Fatal(err)
		}
		feedLive(t, le, ds, ds.NumTicks())
		// The marker pair must not be in contact at tick 60 on its own, or
		// the retraction would change the feed.
		marker := streach.ContactEvent{Tick: 60, A: 0, B: 1}
		for le.ContactActiveAt(marker.A, marker.B, marker.Tick) {
			marker.B++
		}
		stop := make(chan struct{})
		var flips sync.WaitGroup
		flips.Add(1)
		go func() {
			defer flips.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				retract := marker
				retract.Retract = true
				for _, ev := range []streach.ContactEvent{marker, retract} {
					if _, err := le.Ingest([]streach.ContactEvent{ev}); err != nil {
						t.Error(err)
						return
					}
					if _, err := le.Compact(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		for round := 0; round < 3; round++ {
			for src := streach.ObjectID(0); src < 6; src++ {
				for dst := streach.ObjectID(6); dst < streach.ObjectID(ds.NumObjects()); dst += 3 {
					for _, sem := range sems {
						q := streach.Query{Src: src, Dst: dst, Interval: iv, Semantics: sem}
						got, err := le.Reachable(ctx, q)
						if err != nil {
							t.Fatal(err)
						}
						want, err := ref.Reachable(ctx, q)
						if err != nil {
							t.Fatal(err)
						}
						if got.Reachable != want.Reachable || got.Arrival != want.Arrival || got.Hops != want.Hops {
							t.Fatalf("%s %v %+v: got (%v, arrival %d, hops %d), oracle (%v, %d, %d)", le.Name(), q, sem,
								got.Reachable, got.Arrival, got.Hops, want.Reachable, want.Arrival, want.Hops)
						}
					}
					got, err := le.EarliestArrival(ctx, src, dst, iv)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.EarliestArrival(ctx, src, dst, iv)
					if err != nil {
						t.Fatal(err)
					}
					if got.Reachable != want.Reachable || got.Arrival != want.Arrival {
						t.Fatalf("%s arrival %d->%d: got (%v, %d), oracle (%v, %d)", le.Name(), src, dst,
							got.Reachable, got.Arrival, want.Reachable, want.Arrival)
					}
				}
			}
		}
		close(stop)
		flips.Wait()
	}
}
