package streach_test

import (
	"context"
	"sync"
	"testing"

	"streach"
)

// TestEngineStatsSnapshot pins the Stats() surface: one consistent struct
// per engine kind, with the pool counters visible for disk-resident
// backends and segment counts for segmented ones.
func TestEngineStatsSnapshot(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{NumObjects: 40, NumTicks: 300, Seed: 7})
	ctx := context.Background()

	for _, name := range []string{"reachgraph", "reachgraph-mem", "segmented:reachgraph", "oracle"} {
		e, err := streach.Open(name, ds, streach.Options{SegmentTicks: 100})
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		res, err := e.Reachable(ctx, streach.Query{Src: 1, Dst: 2, Interval: streach.NewInterval(0, 250)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := e.Stats()
		if st.Backend != name {
			t.Errorf("%s: Stats().Backend = %q", name, st.Backend)
		}
		if st.NumObjects != ds.NumObjects() || st.NumTicks != ds.NumTicks() {
			t.Errorf("%s: dims %d×%d, want %d×%d", name, st.NumObjects, st.NumTicks, ds.NumObjects(), ds.NumTicks())
		}
		// Open starts the counters at zero, so the totals are the one
		// query's delta.
		if got, want := st.IO, res.IO; got != want {
			t.Errorf("%s: Stats().IO %+v != the only query's delta %+v", name, got, want)
		}
		info, _ := streach.LookupBackend(name)
		if got := st.IndexBytes > 0; got != info.DiskResident {
			t.Errorf("%s: Stats().IndexBytes = %d, disk-resident %v", name, st.IndexBytes, info.DiskResident)
		}
		if info.DiskResident {
			if !st.HasPool {
				t.Errorf("%s: disk-resident engine reports no pool", name)
			}
			if st.Pool.Hits+st.Pool.Misses == 0 {
				t.Errorf("%s: pool counters untouched after a query", name)
			}
		} else if st.HasPool {
			t.Errorf("%s: memory engine reports a pool", name)
		}
		wantSegs := 0
		if name == "segmented:reachgraph" {
			wantSegs = 3 // 300 ticks / 100-tick slabs
		}
		if st.Segments != wantSegs || len(st.SegmentDetails) != wantSegs {
			t.Errorf("%s: Segments = %d with %d details, want %d", name, st.Segments, len(st.SegmentDetails), wantSegs)
		}
	}
}

// TestEngineStatsRaceClean takes snapshots concurrently with a query storm
// (and, for the live engine, with ingestion) — the satellite guarantee
// that /metrics scrapes never race the serving path. Run under -race.
func TestEngineStatsRaceClean(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{NumObjects: 32, NumTicks: 200, Seed: 11})
	e, err := streach.Open("reachgraph", ds, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := streach.Query{
					Src:      streach.ObjectID((w*7 + i) % ds.NumObjects()),
					Dst:      streach.ObjectID((w*13 + i*3) % ds.NumObjects()),
					Interval: streach.NewInterval(0, 150),
				}
				if _, err := e.Reachable(ctx, q); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st := e.Stats()
				if st.IO.RandomReads < 0 {
					t.Error("negative counter")
					return
				}
			}
		}()
	}
	wg.Wait()

	// Live engine: snapshots concurrent with appends and queries.
	live, err := streach.NewLiveEngine("reachgraph-mem", ds.NumObjects(), ds.Env(), ds.ContactDist(),
		streach.Options{SegmentTicks: 50})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var lwg sync.WaitGroup
	lwg.Add(1)
	go func() {
		defer lwg.Done()
		positions := make([]streach.Point, ds.NumObjects())
		for tk := 0; tk < ds.NumTicks(); tk++ {
			for o := range positions {
				positions[o] = ds.Position(streach.ObjectID(o), streach.Tick(tk))
			}
			if err := live.AddInstant(positions); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		lwg.Add(1)
		go func() {
			defer lwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := live.Stats()
				if st.SealedSegments > st.Segments {
					t.Errorf("sealed %d > segments %d", st.SealedSegments, st.Segments)
					return
				}
				if _, err := live.Reachable(context.Background(), streach.Query{
					Src: 0, Dst: 1, Interval: streach.NewInterval(0, streach.Tick(ds.NumTicks())),
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Let readers overlap the whole ingest, then stop them.
	lwg.Add(1)
	go func() { defer lwg.Done(); defer close(done) }()
	lwg.Wait()

	st := live.Stats()
	if st.NumTicks != ds.NumTicks() {
		t.Fatalf("live Stats().NumTicks = %d, want %d", st.NumTicks, ds.NumTicks())
	}
	if want := ds.NumTicks() / 50; st.SealedSegments != want {
		t.Fatalf("live Stats().SealedSegments = %d, want %d", st.SealedSegments, want)
	}
}

// TestLiveEngineHooks pins the seal/ingest notification contract: OnIngest
// fires once per appended instant with that instant's [t, t] interval,
// OnSegmentSeal fires exactly at slab boundaries with the sealed span, and
// a query issued from inside the seal hook already sees the sealed
// segment.
func TestLiveEngineHooks(t *testing.T) {
	const numObjects, numTicks, slab = 24, 130, 40
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{NumObjects: numObjects, NumTicks: numTicks, Seed: 3})
	live, err := streach.NewLiveEngine("oracle", numObjects, ds.Env(), ds.ContactDist(),
		streach.Options{SegmentTicks: slab})
	if err != nil {
		t.Fatal(err)
	}
	var ingested []streach.Interval
	var seals []streach.Interval
	live.OnIngest(func(iv streach.Interval) { ingested = append(ingested, iv) })
	live.OnSegmentSeal(func(span streach.Interval) {
		seals = append(seals, span)
		if got := live.NumSealedSegments(); got != len(seals) {
			t.Errorf("inside seal hook: %d sealed segments visible, want %d", got, len(seals))
		}
	})

	positions := make([]streach.Point, numObjects)
	for tk := 0; tk < numTicks; tk++ {
		for o := range positions {
			positions[o] = ds.Position(streach.ObjectID(o), streach.Tick(tk))
		}
		if err := live.AddInstant(positions); err != nil {
			t.Fatal(err)
		}
	}

	if len(ingested) != numTicks {
		t.Fatalf("ingest hook fired %d times, want %d", len(ingested), numTicks)
	}
	for i, iv := range ingested {
		if want := streach.NewInterval(streach.Tick(i), streach.Tick(i)); iv != want {
			t.Fatalf("ingest hook %d reported %v, want %v", i, iv, want)
		}
	}
	want := []streach.Interval{
		streach.NewInterval(0, slab-1),
		streach.NewInterval(slab, 2*slab-1),
		streach.NewInterval(2*slab, 3*slab-1),
	}
	if len(seals) != len(want) {
		t.Fatalf("seal hook fired %d times, want %d (%v)", len(seals), len(want), seals)
	}
	for i := range want {
		if seals[i] != want[i] {
			t.Fatalf("seal %d span %v, want %v", i, seals[i], want[i])
		}
	}
}

// TestLiveSegmentDetails pins Stats().SegmentDetails on live engines,
// unsharded and over two lanes: sealed slabs, then the tail, each summed
// across lanes — the index bytes and I/O of the lanes' segments, the
// pending delta depth of both copies of a cross-shard late contact — and
// adding up to the engine's totals.
func TestLiveSegmentDetails(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{NumObjects: 40, NumTicks: 120, Seed: 13})
	ctx := context.Background()
	for _, tc := range []struct {
		backend   string
		wantDelta int // copies of one late contact between objects 0 and 1
	}{{"reachgraph", 1}, {"shard:2:reachgraph", 2}} {
		t.Run(tc.backend, func(t *testing.T) {
			le, err := streach.NewLiveEngine(tc.backend, ds.NumObjects(), ds.Env(), ds.ContactDist(),
				streach.Options{SegmentTicks: 50})
			if err != nil {
				t.Fatal(err)
			}
			feedLive(t, le, ds, ds.NumTicks())
			late := streach.ContactEvent{Tick: 10, A: 0, B: 1}
			for le.ContactActiveAt(late.A, late.B, late.Tick) {
				late.Tick++
			}
			if _, err := le.Ingest([]streach.ContactEvent{late}); err != nil {
				t.Fatal(err)
			}
			for src := streach.ObjectID(0); src < 10; src++ {
				if _, err := le.Reachable(ctx, streach.Query{Src: src, Dst: src + 20, Interval: streach.NewInterval(0, 119)}); err != nil {
					t.Fatal(err)
				}
			}
			st := le.Stats()
			spans := []streach.Interval{streach.NewInterval(0, 49), streach.NewInterval(50, 99), streach.NewInterval(100, 119)}
			if st.Segments != 3 || st.SealedSegments != 2 || len(st.SegmentDetails) != 3 {
				t.Fatalf("%d segments (%d sealed), %d details; want 3 (2 sealed), 3", st.Segments, st.SealedSegments, len(st.SegmentDetails))
			}
			var sum streach.IOStats
			var bytes int64
			delta := 0
			for i, s := range st.SegmentDetails {
				if s.Span != spans[i] {
					t.Errorf("segment %d spans %v, want %v", i, s.Span, spans[i])
				}
				if sealed := i < 2; sealed != (s.IndexBytes > 0) {
					t.Errorf("segment %d: %d index bytes, sealed %v", i, s.IndexBytes, sealed)
				}
				sum.RandomReads += s.IO.RandomReads
				sum.SequentialReads += s.IO.SequentialReads
				sum.BufferHits += s.IO.BufferHits
				bytes += s.IndexBytes
				delta += s.DeltaEvents
			}
			if tail := st.SegmentDetails[2]; tail.IO != (streach.IOStats{}) || tail.DeltaEvents != 0 {
				t.Errorf("tail %+v charged I/O or holds deltas", tail)
			}
			if got := st.SegmentDetails[0].DeltaEvents; got != tc.wantDelta || delta != st.DeltaEvents {
				t.Errorf("the late add put %d delta events on slab 0 (all slabs %d, engine %d), want %d", got, delta, st.DeltaEvents, tc.wantDelta)
			}
			if sum.RandomReads != st.IO.RandomReads || sum.SequentialReads != st.IO.SequentialReads ||
				sum.BufferHits != st.IO.BufferHits || sum.RandomReads+sum.SequentialReads+sum.BufferHits == 0 {
				t.Errorf("per-segment I/O %+v, engine %+v; want equal and nonzero", sum, st.IO)
			}
			if bytes != st.IndexBytes {
				t.Errorf("per-segment index bytes %d, engine %d", bytes, st.IndexBytes)
			}
		})
	}
}
