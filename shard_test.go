package streach_test

import (
	"context"
	"errors"
	"testing"

	"streach"
)

// shardSource is the dataset the sharded-backend tests query: large enough
// that multi-round frontier hand-offs between shards actually happen.
func shardSource(t testing.TB) *streach.Dataset {
	t.Helper()
	return streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 72, NumTicks: 200, Seed: 907,
	})
}

// TestShardDynamicNamesMatchOracle opens shard configurations that are NOT
// pre-registered — odd shard counts, segmented and bidir bases, explicit
// "hash:" — and asserts exact oracle agreement on point and set queries.
// (The pre-registered shard:{1,2,4}[:spatial]:reachgraph points are swept by
// TestCrossBackendConformance like every registry backend.)
func TestShardDynamicNamesMatchOracle(t *testing.T) {
	ds := shardSource(t)
	oracle := ds.Contacts().Oracle()
	ctx := context.Background()
	// The explicit "hash:" spelling canonicalizes to the bare form.
	if eng, err := streach.Open("shard:3:hash:reachgraph-mem", ds, streach.Options{}); err != nil {
		t.Fatal(err)
	} else if eng.Name() != "shard:3:reachgraph-mem" {
		t.Errorf("hash spelling canonicalized to %q", eng.Name())
	}
	// GRAIL cores answer by label containment, not frontier expansion, so
	// they cannot serve as shard children.
	if _, err := streach.Open("shard:2:grail-mem", ds, streach.Options{}); err == nil {
		t.Error("Open(shard:2:grail-mem) accepted a base with no scatter-gather entry points")
	}
	for _, name := range []string{
		"shard:3:reachgraph-mem",
		"shard:3:spatial:reachgraph-mem",
		"shard:2:segmented:reachgraph",
		"shard:2:bidir:reachgraph",
		"shard:5:spatial:segmented:reachgraph-mem",
	} {
		eng, err := streach.Open(name, ds, streach.Options{SegmentTicks: 48})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if eng.Name() != name {
			t.Errorf("%s: Name = %q", name, eng.Name())
		}
		work := streach.RandomQueries(streach.WorkloadOptions{
			NumObjects: ds.NumObjects(), NumTicks: ds.NumTicks(),
			Count: 60, MinLen: 5, MaxLen: ds.NumTicks(), Seed: 31,
		})
		for _, q := range work {
			r, err := eng.Reachable(ctx, q)
			if err != nil {
				t.Fatalf("%s %v: %v", name, q, err)
			}
			if want := oracle.Reachable(q); r.Reachable != want {
				t.Fatalf("%s disagrees with oracle on %v: got %v, want %v", name, q, r.Reachable, want)
			}
		}
		for src := streach.ObjectID(0); src < 6; src++ {
			iv := streach.NewInterval(streach.Tick(src*7), streach.Tick(ds.NumTicks()-1))
			sr, err := eng.ReachableSet(ctx, src, iv)
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.ReachableSet(src, iv)
			sortIDs(want)
			if !equalIDs(sr.Objects, want) {
				t.Fatalf("%s set %d %v: got %v, want %v", name, src, iv, sr.Objects, want)
			}
		}
	}
}

// TestShardNameErrors exercises the malformed and unsatisfiable shard names.
func TestShardNameErrors(t *testing.T) {
	ds := shardSource(t)
	for _, name := range []string{
		"shard:0:reachgraph",         // shard count < 1
		"shard:x:reachgraph",         // non-numeric count
		"shard:2:",                   // empty base
		"shard:2:shard:2:reachgraph", // nested sharding
		"shard:2:nosuch",             // unknown base
	} {
		if _, err := streach.Open(name, ds, streach.Options{}); !errors.Is(err, streach.ErrUnknownBackend) {
			t.Errorf("Open(%q) = %v, want ErrUnknownBackend", name, err)
		}
	}
	// Parts exchange swept frontiers, which GRAIL's label containment does
	// not offer.
	if _, err := streach.Open("shard:2:grail", ds, streach.Options{}); err == nil {
		t.Error("Open(shard:2:grail) accepted a base with no sweep entry points")
	}
	// The spatial partitioner snaps trajectories, so a bare contact network
	// cannot feed it.
	if _, err := streach.Open("shard:2:spatial:reachgraph", ds.Contacts(), streach.Options{}); !errors.Is(err, streach.ErrNeedsTrajectories) {
		t.Errorf("spatial cut from contact network = %v, want ErrNeedsTrajectories", err)
	}
	if _, err := streach.Open("shard:2:reachgraph", ds.Contacts(), streach.Options{}); err != nil {
		t.Errorf("hash cut from contact network: %v", err)
	}
}

// TestShardStatsSurface checks the sharding observability: Stats shard
// fields, the Sharded interface, per-shard accounting and the cross-shard
// frontier counter.
func TestShardStatsSurface(t *testing.T) {
	ds := shardSource(t)
	ctx := context.Background()
	eng, err := streach.Open("shard:4:spatial:reachgraph", ds, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Shards != 4 || st.Partitioner != "spatial" {
		t.Fatalf("Stats shards = %d/%q, want 4/spatial", st.Shards, st.Partitioner)
	}
	if st.CrossShardRatio < 0 || st.CrossShardRatio > 1 {
		t.Fatalf("CrossShardRatio = %v", st.CrossShardRatio)
	}
	if !st.HasPool {
		t.Error("disk-resident shards report no buffer pool")
	}
	sh, ok := eng.(streach.Sharded)
	if !ok {
		t.Fatal("shard backend does not implement Sharded")
	}
	details := sh.ShardStats()
	if len(details) != 4 {
		t.Fatalf("ShardStats len = %d", len(details))
	}
	objects := 0
	for s, d := range details {
		if d.Shard != s {
			t.Errorf("ShardStats[%d].Shard = %d", s, d.Shard)
		}
		if d.Objects <= 0 {
			t.Errorf("shard %d owns %d objects; spatial cut should balance", s, d.Objects)
		}
		objects += d.Objects
	}
	if objects != ds.NumObjects() {
		t.Errorf("shards own %d objects, dataset has %d", objects, ds.NumObjects())
	}
	if _, err := eng.ReachableSet(ctx, 0, streach.NewInterval(0, streach.Tick(ds.NumTicks()-1))); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.IO.RandomReads+st.IO.SequentialReads+st.IO.BufferHits == 0 {
		t.Error("sharded set query charged no I/O on a disk backend")
	}
}

// TestLiveShardMatchesOracle replays a feed into a hash-sharded LiveEngine
// — per-shard ingest lanes, sealing and compaction — and asserts exact
// oracle agreement at checkpoints, through late events and retractions.
func TestLiveShardMatchesOracle(t *testing.T) {
	ds := replaySource(t, 40, 240)
	ctx := context.Background()
	le, err := streach.NewLiveEngine("shard:3:reachgraph", ds.NumObjects(), ds.Env(), ds.ContactDist(),
		streach.Options{SegmentTicks: 32, CompactEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	if le.Name() != "live:shard:3:reachgraph" {
		t.Errorf("Name = %q", le.Name())
	}
	for _, checkpoint := range []int{60, 140, 240} {
		feedLive(t, le, ds, checkpoint)
		if got := le.NumTicks(); got != checkpoint {
			t.Fatalf("NumTicks = %d, want %d", got, checkpoint)
		}
		// Drop a late add and retract an instant behind the frontier; the
		// routed delta logs must keep answers exact immediately.
		late := streach.Tick(checkpoint - 20)
		rep, err := le.Ingest([]streach.ContactEvent{
			{Tick: late, A: 1, B: 39},
			{Tick: late, A: 1, B: 39, Retract: true},
			{Tick: late, A: 2, B: 38},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Late+rep.Applied != 2 || rep.Retracted != 1 {
			t.Fatalf("ingest report %+v, want 2 applies and 1 retraction", rep)
		}
		if !le.ContactActiveAt(2, 38, late) {
			t.Error("late add invisible to ContactActiveAt")
		}
		if le.ContactActiveAt(1, 39, late) {
			t.Error("retracted contact still active")
		}
		oracle := le.Snapshot().Oracle()
		ref, err := streach.Open("oracle", le.Snapshot(), streach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		work := streach.RandomQueries(streach.WorkloadOptions{
			NumObjects: ds.NumObjects(), NumTicks: checkpoint,
			Count: 40, MinLen: 8, MaxLen: checkpoint, Seed: int64(checkpoint),
		})
		for _, q := range work {
			r, err := le.Reachable(ctx, q)
			if err != nil {
				t.Fatalf("%v: %v", q, err)
			}
			if want := oracle.Reachable(q); r.Reachable != want {
				t.Fatalf("disagrees with oracle on %v at tick %d: got %v, want %v", q, checkpoint, r.Reachable, want)
			}
			ar, err := le.EarliestArrival(ctx, q.Src, q.Dst, q.Interval)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.EarliestArrival(ctx, q.Src, q.Dst, q.Interval)
			if err != nil {
				t.Fatal(err)
			}
			if ar.Reachable != want.Reachable || ar.Arrival != want.Arrival {
				t.Fatalf("arrival for %v: got (%v,%v), want (%v,%v)", q, ar.Arrival, ar.Reachable, want.Arrival, want.Reachable)
			}
			if !ar.Native {
				t.Fatalf("sharded live arrival for %v fell back to the oracle", q)
			}
		}
		for src := streach.ObjectID(0); src < 4; src++ {
			iv := streach.NewInterval(streach.Tick(5*src), streach.Tick(checkpoint-1))
			sr, err := le.ReachableSet(ctx, src, iv)
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.ReachableSet(src, iv)
			sortIDs(want)
			if !equalIDs(sr.Objects, want) {
				t.Fatalf("set %d %v at tick %d: got %v, want %v", src, iv, checkpoint, sr.Objects, want)
			}
		}
	}
	if _, err := le.Compact(); err != nil {
		t.Fatal(err)
	}
	st := le.Stats()
	if st.Shards != 3 || st.Partitioner != "hash" {
		t.Errorf("live Stats shards = %d/%q, want 3/hash", st.Shards, st.Partitioner)
	}
	if st.Compactions == 0 {
		t.Error("no lane ever compacted")
	}
	if st.CrossShardRatio <= 0 || st.CrossShardRatio > 1 {
		t.Errorf("live CrossShardRatio = %v, want (0, 1] under hash partitioning", st.CrossShardRatio)
	}
	if st.CrossShardFrontier == 0 {
		t.Error("no frontier object ever crossed the shard cut")
	}
	details := le.ShardStats()
	if len(details) != 3 {
		t.Fatalf("live ShardStats len = %d", len(details))
	}
	objects := 0
	for _, d := range details {
		objects += d.Objects
		if d.Contacts == 0 {
			t.Errorf("shard %d routed no contacts", d.Shard)
		}
	}
	if objects != ds.NumObjects() {
		t.Errorf("lanes own %d objects, feed has %d", objects, ds.NumObjects())
	}
	if seg := le.SegmentStats(); len(seg) == 0 {
		t.Error("empty SegmentStats")
	}
}

// TestLiveShardRejectsSpatial: the live feed carries no trajectories to
// snap, so only hash partitioning is live-capable.
func TestLiveShardRejectsSpatial(t *testing.T) {
	ds := replaySource(t, 10, 10)
	_, err := streach.NewLiveEngine("shard:2:spatial:reachgraph", ds.NumObjects(), ds.Env(), ds.ContactDist(), streach.Options{})
	if !errors.Is(err, streach.ErrNotLiveCapable) {
		t.Fatalf("spatial live shards = %v, want ErrNotLiveCapable", err)
	}
	// shard:1 keeps the single log but preserves the requested name.
	le, err := streach.NewLiveEngine("shard:1:reachgraph-mem", ds.NumObjects(), ds.Env(), ds.ContactDist(), streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if le.Name() != "live:shard:1:reachgraph-mem" {
		t.Errorf("Name = %q", le.Name())
	}
	if st := le.Stats(); st.Shards != 1 {
		t.Errorf("Stats.Shards = %d, want 1", st.Shards)
	}
}
