package streach_test

import (
	"context"
	"errors"
	"slices"
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
			slices.Sort(want)
			if !slices.Equal(sr.Objects, want) {
				t.Fatalf("%s set %d %v: got %v, want %v", name, src, iv, sr.Objects, want)
			}
		}
	}
}

// TestSetExpandedCountsShardSweeps holds SetResult.Expanded to the work a
// set query did, not the size of its answer: the same set, found by one
// ReachGraph sweep or by four shards' owner sweeps that hand frontiers to
// each other, is one size, but the shards visit more vertices.
func TestSetExpandedCountsShardSweeps(t *testing.T) {
	ds := shardSource(t)
	ctx := context.Background()
	iv := streach.NewInterval(0, streach.Tick(ds.NumTicks()-1))
	var got [2]streach.SetResult
	for i, name := range []string{"reachgraph", "shard:4:reachgraph"} {
		eng, err := streach.Open(name, ds, streach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got[i], err = eng.ReachableSet(ctx, 0, iv); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	one, sharded := got[0], got[1]
	if !slices.Equal(one.Objects, sharded.Objects) {
		t.Fatalf("sets differ: %v against %v", one.Objects, sharded.Objects)
	}
	if one.Expanded <= 0 || sharded.Expanded <= one.Expanded {
		t.Errorf("expanded: reachgraph %d, shard:4:reachgraph %d; want 0 < reachgraph < sharded (set of %d)",
			one.Expanded, sharded.Expanded, len(one.Objects))
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

// TestLiveShardRejectsSpatial: the live feed carries no trajectories to
// snap, and a live engine keeps one log, so every outer shard: name is
// refused live, the spatial cut included; the unsharded base still opens.
func TestLiveShardRejectsSpatial(t *testing.T) {
	ds := replaySource(t, 10, 10)
	for _, name := range []string{"shard:2:spatial:reachgraph", "shard:1:spatial:reachgraph", "shard:1:reachgraph-mem"} {
		_, err := streach.NewLiveEngine(name, ds.NumObjects(), ds.Env(), ds.ContactDist(), streach.Options{})
		if !errors.Is(err, streach.ErrNotLiveCapable) {
			t.Errorf("live %q = %v, want ErrNotLiveCapable", name, err)
		}
	}
	le, err := streach.NewLiveEngine("reachgraph-mem", ds.NumObjects(), ds.Env(), ds.ContactDist(), streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if le.Name() != "live:reachgraph-mem" {
		t.Errorf("Name = %q", le.Name())
	}
	if st := le.Stats(); st.Shards != 0 {
		t.Errorf("Stats.Shards = %d, want 0 on a live engine", st.Shards)
	}
}

// TestShardStatsSurface checks the sharding observability: Stats shard
// fields, per-shard accounting (ShardDetails) and the cross-shard frontier
// counter.
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
	details := st.ShardDetails
	if len(details) != 4 {
		t.Fatalf("ShardDetails len = %d", len(details))
	}
	objects := 0
	for s, d := range details {
		if d.Shard != s {
			t.Errorf("ShardDetails[%d].Shard = %d", s, d.Shard)
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
