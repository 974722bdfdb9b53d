package streach_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"streach"
)

// TestShardPrunedPlannerMatchesOracle holds the scatter-gather planner,
// whose owner sweeps skip the runs their owners already expanded, to the
// oracle on generated datasets — clustered and RWP in turn — across shard
// counts, both cuts, the disk and the memory ReachGraph, and a default and
// a four-page pool: every point answer, every earliest arrival and every
// reachable set. 6 datasets and 36 queries per engine (8640 cases); 2 and
// 12 under -short.
func TestShardPrunedPlannerMatchesOracle(t *testing.T) {
	datasets, perKind := 6, 12
	if testing.Short() {
		datasets, perKind = 2, 4
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20261019))
	cases := 0
	for d := 0; d < datasets; d++ {
		objects, ticks, seed := 24+rng.Intn(48), 60+rng.Intn(200), rng.Int63n(1<<30)
		var ds *streach.Dataset
		if d%2 == 0 {
			ds = streach.GenerateClustered(streach.ClusteredOptions{NumObjects: objects, NumTicks: ticks, Seed: seed})
		} else {
			ds = streach.GenerateRandomWaypoint(streach.RWPOptions{NumObjects: objects, NumTicks: ticks, Seed: seed})
		}
		oracle := ds.Contacts().Oracle()
		ref, err := streach.Open("oracle", ds, streach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		interval := func() streach.Interval {
			lo := rng.Intn(ticks)
			return streach.NewInterval(streach.Tick(lo), streach.Tick(lo+rng.Intn(ticks-lo)))
		}
		type pointCase struct {
			q    streach.Query
			want streach.Result
		}
		var points []pointCase
		for i := 0; i < 2*perKind; i++ {
			q := streach.Query{
				Src:      streach.ObjectID(rng.Intn(objects)),
				Dst:      streach.ObjectID(rng.Intn(objects)),
				Interval: interval(),
			}
			if i%2 == 1 {
				q.Semantics.TrackArrival = true
			}
			want, err := ref.Reachable(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if want.Reachable != oracle.Reachable(q) {
				t.Fatalf("oracle backend and oracle disagree on %v", q)
			}
			points = append(points, pointCase{q, want})
		}
		type setCase struct {
			src  streach.ObjectID
			iv   streach.Interval
			want []streach.ObjectID
		}
		var sets []setCase
		for i := 0; i < perKind; i++ {
			c := setCase{src: streach.ObjectID(rng.Intn(objects)), iv: interval()}
			c.want = oracle.ReachableSet(c.src, c.iv)
			sortIDs(c.want)
			sets = append(sets, c)
		}
		for _, k := range []int{2, 3, 4, 5, 7} {
			for _, cut := range []string{"", "spatial:"} {
				for _, base := range []string{"reachgraph", "reachgraph-mem"} {
					for _, pool := range []int{0, 4} {
						name := fmt.Sprintf("shard:%d:%s%s", k, cut, base)
						e, err := streach.Open(name, ds, streach.Options{PoolPages: pool})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						at := fmt.Sprintf("dataset %d (%d objects, %d ticks, seed %d), %s, pool %d", d, objects, ticks, seed, name, pool)
						for _, c := range points {
							r, err := e.Reachable(ctx, c.q)
							if err != nil {
								t.Fatalf("%s %v: %v", at, c.q, err)
							}
							if r.Reachable != c.want.Reachable || c.q.Semantics.TrackArrival && r.Arrival != c.want.Arrival {
								t.Fatalf("%s %v: (%v, arrival %d), oracle (%v, arrival %d)",
									at, c.q, r.Reachable, r.Arrival, c.want.Reachable, c.want.Arrival)
							}
							cases++
						}
						for _, c := range sets {
							r, err := e.ReachableSet(ctx, c.src, c.iv)
							if err != nil {
								t.Fatalf("%s set %d %v: %v", at, c.src, c.iv, err)
							}
							if !equalIDs(r.Objects, c.want) {
								t.Fatalf("%s set %d %v: %v, oracle %v", at, c.src, c.iv, r.Objects, c.want)
							}
							cases++
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}
