package reachgrid

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"streach/internal/queries"
	"streach/internal/trajectory"
)

// TestSettledRoundsFindNothing holds walk's skip to what it skips. On every
// round the walk marks settled (grown == false) the test's steps still run
// the full step — the spread or the relaxation — and require it to find
// nothing: no newly infected object, and for the relaxation no new carrier
// and no changed hop count or arrival. The steps are otherwise the shipped
// ones, which the final answers are checked against. Datasets cover
// buckets of 1, 5 and 20 ticks, cells narrower than the contact distance,
// deferred seeds and an early destination.
func TestSettledRoundsFindNothing(t *testing.T) {
	ctx := context.Background()
	var settledSpread, settledRelax int
	for _, c := range []struct {
		objects, ticks int
		seed           int64
		params         Params
	}{
		{120, 400, 16, Params{PoolPages: 24}},
		{60, 300, 5, Params{CellSize: 20, BucketTicks: 5}},
		{40, 240, 9, Params{CellSize: 60, BucketTicks: 1}},
		{35, 220, 17, Params{CellSize: 15, BucketTicks: 20, PoolPages: 4}},
	} {
		d := testDataset(t, c.objects, c.ticks, c.seed)
		ix := buildIndex(t, d, c.params)
		n := trajectory.ObjectID(d.NumObjects())
		work := queries.RandomWorkload(queries.WorkloadConfig{
			NumObjects: d.NumObjects(), NumTicks: d.NumTicks(),
			Count: 16, MinLen: 30, MaxLen: 160, Seed: c.seed,
		})
		for i, q := range work {
			name := fmt.Sprintf("%d objects, %+v, %v", c.objects, c.params, q)

			// The boolean sweep from Src and a second seed.
			sc, acct := ix.begin(nil)
			for _, s := range []trajectory.ObjectID{q.Src, (q.Src + 3) % n} {
				if sc.seeds.Visit(int(s)) {
					sc.reached = append(sc.reached, s)
				}
			}
			reached := slices.Contains(sc.reached, q.Dst)
			if !reached {
				err := ix.walk(ctx, sc, q.Interval, acct, func(tk trajectory.Tick, grown bool) ([]trajectory.ObjectID, bool) {
					fresh := ix.infectAt(sc, tk)
					if !grown {
						settledSpread++
						if len(fresh) > 0 {
							t.Errorf("%s: settled spread at %d infected %v", name, tk, fresh)
						}
					}
					if j := slices.Index(fresh, q.Dst); j >= 0 {
						reached = true
						return fresh[:j+1], true
					}
					return fresh, false
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			ix.pool.Put(sc)
			want, _, err := ix.ReachFromCounted(ctx, []trajectory.ObjectID{q.Src, (q.Src + 3) % n}, q.Dst, q.Interval, nil)
			if err != nil || reached != want {
				t.Errorf("%s: instrumented spread %v, ReachFromCounted %v (%v)", name, reached, want, err)
			}

			// The hop relaxation, with a deferred carrier and, on every
			// other query, an early destination.
			seeds := []queries.SeedState{
				{Obj: q.Src},
				{Obj: (q.Src + 7) % n, Hops: 1, Start: q.Interval.Lo + trajectory.Tick(q.Interval.Len()/3)},
			}
			budget, early := int32(4), trajectory.ObjectID(-1)
			if i%2 == 0 {
				early = q.Dst
			}
			if i%3 == 0 {
				budget = queries.UnboundedHops
			}
			got := instrumentedProfile(t, ix, seeds, q, budget, early, &settledRelax)
			wantProf, _, err := ix.AppendSemProfileFrom(ctx, nil, seeds, q.Interval, budget, early, nil)
			if err != nil || !slices.Equal(got, wantProf) {
				t.Errorf("%s: instrumented profile %v, AppendSemProfileFrom %v (%v)", name, got, wantProf, err)
			}
		}
	}
	if settledSpread == 0 || settledRelax == 0 {
		t.Fatalf("vacuous: %d settled spread rounds, %d settled relaxation rounds", settledSpread, settledRelax)
	}
	t.Logf("%d settled spread rounds, %d settled relaxation rounds", settledSpread, settledRelax)
}

// instrumentedProfile is AppendSemProfileFrom over the walk with a step
// that relaxes settled rounds too, failing t if one changes anything;
// settled counts them.
func instrumentedProfile(t *testing.T, ix *Index, seeds []queries.SeedState, q queries.Query, budget int32, early trajectory.ObjectID, settled *int) []queries.ProfileEntry {
	t.Helper()
	sc, acct := ix.begin(nil)
	defer ix.pool.Put(sc)
	if err := ix.seedSem(sc, seeds, q.Interval, budget); err != nil {
		t.Fatal(err)
	}
	dstReached := func() bool {
		if early < 0 {
			return false
		}
		_, ok := sc.hops.Get(int(early))
		return ok
	}
	hops := make([]int32, ix.numObjects)
	arr := make([]int32, ix.numObjects)
	snapshot := func(hops, arr []int32) {
		for o := range hops {
			hops[o], arr[o] = -1, -1
			if h, ok := sc.hops.Get(o); ok {
				hops[o] = h
				arr[o], _ = sc.arrTicks.Get(o)
			}
		}
	}
	hopsAfter := make([]int32, ix.numObjects)
	arrAfter := make([]int32, ix.numObjects)
	if !dstReached() {
		err := ix.walk(context.Background(), sc, q.Interval, acct, func(tk trajectory.Tick, grown bool) ([]trajectory.ObjectID, bool) {
			if grown {
				fresh := ix.relaxAt(sc, tk, budget)
				return fresh, len(fresh) == 0 && dstReached()
			}
			*settled++
			snapshot(hops, arr)
			fresh := ix.relaxAt(sc, tk, budget)
			snapshot(hopsAfter, arrAfter)
			if len(fresh) > 0 || !slices.Equal(hops, hopsAfter) || !slices.Equal(arr, arrAfter) {
				t.Errorf("%v budget %d: settled relaxation at %d reached %v or moved hops %v → %v, arrivals %v → %v",
					q, budget, tk, fresh, hops, hopsAfter, arr, arrAfter)
			}
			return nil, dstReached()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sc.deferred[sc.di:] {
		sc.activate(s, s.Start)
	}
	return appendSemEntries(nil, sc)
}
