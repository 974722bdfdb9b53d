package reachgrid

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// sweepCounts is what one entry point did over the whole query list:
// objects infected, pages by kind, and a digest of every query's own
// (answer, expanded, random, sequential, hits) tuple — for the semantic
// sweep the digest covers the returned profile too.
type sweepCounts struct {
	expanded          int
	random, seq, hits int64
	digest            uint64
}

// TestSweepCountsUnchanged holds the sweep to the work it did before the
// per-instant step became a seeded spread: on a fixed dataset and query
// list, each entry point infects the same objects in the same order
// (expanded stops at the destination mid-batch) and reads the same pages
// in the same order (random/sequential classification and pool hits depend
// on it). The constants were recorded from the commit before the change; a
// difference means a read was skipped, moved or added, or an infection
// batch was reordered. The size of the index is pinned beside them: with
// one page layout there is no second one to compare against, so a layout
// change that bloats the index fails here.
func TestSweepCountsUnchanged(t *testing.T) {
	want := map[string]sweepCounts{
		"varint/reach": {1312, 27, 640, 5807, 0xcd209d6637704e7e},
		"varint/spj":   {1312, 23, 658, 5533, 0x656904feecdb915},
		"varint/sem":   {1711, 33, 756, 8144, 0xcac9aaca12e412ce},
	}
	d := testDataset(t, 120, 400, 16)
	work := queries.RandomWorkload(queries.WorkloadConfig{
		NumObjects: d.NumObjects(), NumTicks: d.NumTicks(),
		Count: 24, MinLen: 40, MaxLen: 160, Seed: 16,
	})
	ctx := context.Background()
	ix := buildIndex(t, d, Params{PoolPages: 24})
	if got, want := ix.Store().SizeBytes(), int64(144*pagefile.PageSize); got != want {
		t.Errorf("index occupies %d bytes, recorded %d", got, want)
	}
	runs := map[string]func(q queries.Query, i int, acct *pagefile.Stats) (string, int, error){
		"reach": func(q queries.Query, _ int, acct *pagefile.Stats) (string, int, error) {
			ok, n, err := ix.ReachCounted(ctx, q, acct)
			return fmt.Sprint(ok), n, err
		},
		"spj": func(q queries.Query, _ int, acct *pagefile.Stats) (string, int, error) {
			ok, n, err := ix.SPJReachCounted(ctx, q, acct)
			return fmt.Sprint(ok), n, err
		},
		"sem": func(q queries.Query, i int, acct *pagefile.Stats) (string, int, error) {
			// A second carrier activates a third of the way in; every
			// other query stops at its destination.
			seeds := []queries.SeedState{
				{Obj: q.Src, Hops: 0, Start: q.Interval.Lo},
				{Obj: (q.Src + 7) % trajectory.ObjectID(d.NumObjects()), Hops: 1, Start: q.Interval.Lo + trajectory.Tick(q.Interval.Len()/3)},
			}
			early := trajectory.ObjectID(-1)
			if i%2 == 0 {
				early = q.Dst
			}
			prof, n, err := ix.AppendSemProfileFrom(ctx, nil, seeds, q.Interval, 4, early, acct)
			return fmt.Sprint(prof), n, err
		},
	}
	for _, name := range []string{"reach", "spj", "sem"} {
		ix.Store().DropCache()
		var got sweepCounts
		h := fnv.New64a()
		for i, q := range work {
			var acct pagefile.Stats
			answer, n, err := runs[name](q, i, &acct)
			if err != nil {
				t.Fatalf("varint/%s %v: %v", name, q, err)
			}
			got.expanded += n
			got.random += acct.RandomReads
			got.seq += acct.SequentialReads
			got.hits += acct.BufferHits
			fmt.Fprintf(h, "%s %d %d %d %d;", answer, n, acct.RandomReads, acct.SequentialReads, acct.BufferHits)
		}
		got.digest = h.Sum64()
		if key := "varint/" + name; got != want[key] {
			t.Errorf("%q: {%d, %d, %d, %d, %#x}, recorded {%d, %d, %d, %d, %#x}", key,
				got.expanded, got.random, got.seq, got.hits, got.digest,
				want[key].expanded, want[key].random, want[key].seq, want[key].hits, want[key].digest)
		}
	}
}
