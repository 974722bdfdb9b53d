package reachgraph

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"streach/internal/contact"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// sweepCounts is what one entry point did over the whole query list:
// vertices visited, pages by kind, and a digest of every query's own
// (profile, visits, random, sequential, hits) tuple.
type sweepCounts struct {
	visits            int
	random, seq, hits int64
	digest            uint64
}

// TestSweepCountsUnchanged holds the one sweep to the work the two
// collectors it replaced did: on a fixed graph and query list, forward with
// uniform seeds, forward with seeds activating at their own ticks (one
// before the interval, one on its last tick, one past it) and backward
// (whose seeds' Start must not matter), each of the disk index and the
// memory engine returns the same profiles, visits the same vertices and
// reads the same pages in the same order. The constants were
// recorded from the commit before the fold, by this test body run against
// AppendArrivalProfileSeeds (forward) and AppendReverseProfileFrom
// (backward, which took bare objects and kept a plain visited set); a
// difference means the entry-tick table re-queued where the visited set
// did not, or a read was skipped, moved or added. The size of the disk
// index is pinned beside them: with one page layout there is no second one
// to compare against, so a layout change that bloats the index fails here.
func TestSweepCountsUnchanged(t *testing.T) {
	want := map[string]sweepCounts{
		"varint/forward":   {9504, 71, 876, 105, 0xab10ce9c5e875e01},
		"varint/staggered": {9475, 75, 893, 109, 0x61edeb7241e6ec9a},
		"varint/backward":  {9115, 78, 878, 139, 0xa1e1b2e7d43a8f0},
		"mem/forward":      {9504, 0, 0, 0, 0xfc1bcd236ec2499b},
		"mem/staggered":    {9475, 0, 0, 0, 0xf9c03a36469c191},
		"mem/backward":     {9115, 0, 0, 0, 0xdc933ca309df87f5},
	}
	f := newFixture(t, 60, 400, 16)
	work := f.workload(24, 40, 160, 16)
	n := trajectory.ObjectID(f.d.NumObjects())
	ctx := context.Background()

	// One entry per engine under test; dropCache is nil in memory.
	type target struct {
		name      string
		dropCache func()
		profile   func(seeds []queries.SeedState, iv contact.Interval, dir queries.Direction, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error)
	}
	ix, err := Build(f.g, Params{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix.Store().SizeBytes(), int64(49*pagefile.PageSize); got != want {
		t.Errorf("index occupies %d bytes, recorded %d", got, want)
	}
	targets := []target{{"varint", ix.DropCache, func(seeds []queries.SeedState, iv contact.Interval, dir queries.Direction, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
		return ix.AppendProfile(ctx, nil, seeds, iv, dir, acct)
	}}}
	mem, err := NewMem(f.g, []int{2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	targets = append(targets, target{"mem", nil, func(seeds []queries.SeedState, iv contact.Interval, dir queries.Direction, _ *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
		return mem.AppendProfile(ctx, nil, seeds, iv, dir)
	}})

	cases := []struct {
		name  string
		dir   queries.Direction
		seeds func(q queries.Query) []queries.SeedState
	}{
		{"forward", queries.Forward, func(q queries.Query) []queries.SeedState {
			return []queries.SeedState{{Obj: q.Src}, {Obj: (q.Src + 7) % n}, {Obj: q.Src}}
		}},
		{"staggered", queries.Forward, func(q queries.Query) []queries.SeedState {
			iv := q.Interval
			return []queries.SeedState{
				{Obj: q.Src, Start: iv.Lo},
				{Obj: (q.Src + 7) % n, Start: iv.Lo + trajectory.Tick(iv.Len()/3)},
				{Obj: (q.Src + 13) % n, Start: iv.Lo - 5},
				{Obj: (q.Src + 19) % n, Start: iv.Hi},
				{Obj: (q.Src + 23) % n, Start: iv.Hi + 1},
			}
		}},
		{"backward", queries.Backward, func(q queries.Query) []queries.SeedState {
			return []queries.SeedState{{Obj: q.Dst}, {Obj: (q.Dst + 7) % n, Start: q.Interval.Lo + 3}, {Obj: q.Dst}}
		}},
	}
	for _, tg := range targets {
		for _, c := range cases {
			if tg.dropCache != nil {
				tg.dropCache()
			}
			var got sweepCounts
			h := fnv.New64a()
			for _, q := range work {
				var acct pagefile.Stats
				prof, visits, err := tg.profile(c.seeds(q), q.Interval, c.dir, &acct)
				if err != nil {
					t.Fatalf("%s/%s %v: %v", tg.name, c.name, q, err)
				}
				got.visits += visits
				got.random += acct.RandomReads
				got.seq += acct.SequentialReads
				got.hits += acct.BufferHits
				fmt.Fprintf(h, "%v %d %d %d %d;", prof, visits, acct.RandomReads, acct.SequentialReads, acct.BufferHits)
			}
			got.digest = h.Sum64()
			if key := tg.name + "/" + c.name; got != want[key] {
				t.Errorf("%q: {%d, %d, %d, %d, %#x}, recorded {%d, %d, %d, %d, %#x}", key,
					got.visits, got.random, got.seq, got.hits, got.digest,
					want[key].visits, want[key].random, want[key].seq, want[key].hits, want[key].digest)
			}
		}
	}
}
