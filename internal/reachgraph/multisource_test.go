package reachgraph

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"streach/internal/contact"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// TestMultiSourceMatchesOracle drives random seed frontiers through the
// multi-source entry points of both the disk and memory engines and checks
// them against the oracle's multi-source propagation — the contract the
// cross-segment planner depends on.
func TestMultiSourceMatchesOracle(t *testing.T) {
	f := newFixture(t, 45, 300, 33)
	ix, err := Build(f.g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMem(f.g, []int{2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	var positives int
	for trial := 0; trial < 60; trial++ {
		seeds := make([]trajectory.ObjectID, 1+rng.Intn(6))
		for i := range seeds {
			seeds[i] = trajectory.ObjectID(rng.Intn(f.d.NumObjects()))
		}
		dst := trajectory.ObjectID(rng.Intn(f.d.NumObjects()))
		lo := trajectory.Tick(rng.Intn(f.d.NumTicks() - 60))
		iv := contact.Interval{Lo: lo, Hi: lo + trajectory.Tick(20+rng.Intn(120))}

		wantSet := f.oracle.ReachableSetFrom(seeds, iv)
		wantReach, _ := f.oracle.ReachableFromCounted(seeds, dst, iv)
		if wantReach {
			positives++
		}

		prof, _, err := ix.AppendProfile(ctx, nil, seedsOf(seeds...), iv, queries.Forward, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gotSet := objectsOf(prof); !equalIDSlices(gotSet, wantSet) {
			t.Fatalf("disk set from %v over %v: got %v, want %v", seeds, iv, gotSet, wantSet)
		}
		prof, _, err = mem.AppendProfile(ctx, nil, seedsOf(seeds...), iv, queries.Forward)
		if err != nil {
			t.Fatal(err)
		}
		if memSet := objectsOf(prof); !equalIDSlices(memSet, wantSet) {
			t.Fatalf("mem set from %v over %v: got %v, want %v", seeds, iv, memSet, wantSet)
		}

		// Seeds activating at their own ticks: arrivals against the oracle's.
		staggered := seedsOf(seeds...)
		for i := range staggered {
			staggered[i].Start = iv.Lo + trajectory.Tick(i*iv.Len()/8)
		}
		wantProf, _ := f.oracle.ProfileFrom(staggered, iv, queries.UnboundedHops, queries.NoObject)
		for name, sweep := range map[string]func() ([]queries.ProfileEntry, int, error){
			"disk": func() ([]queries.ProfileEntry, int, error) {
				return ix.AppendProfile(ctx, nil, staggered, iv, queries.Forward, nil)
			},
			"mem": func() ([]queries.ProfileEntry, int, error) {
				return mem.AppendProfile(ctx, nil, staggered, iv, queries.Forward)
			},
		} {
			prof, _, err := sweep()
			if err != nil {
				t.Fatal(err)
			}
			if len(prof) != len(wantProf) {
				t.Fatalf("%s staggered profile from %v over %v: %d entries, oracle %d", name, staggered, iv, len(prof), len(wantProf))
			}
			for i, e := range prof {
				if e.Obj != wantProf[i].Obj || e.Arrival != wantProf[i].Arrival {
					t.Fatalf("%s staggered profile from %v over %v: entry %d = %+v, oracle %+v", name, staggered, iv, i, e, wantProf[i])
				}
			}
		}

		for _, s := range []Strategy{BMBFS, BBFS, EBFS, EDFS} {
			got, _, err := ix.ReachFromCounted(ctx, seeds, dst, iv, s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != wantReach {
				t.Fatalf("%v disk reach from %v to %d over %v: got %v, want %v",
					s, seeds, dst, iv, got, wantReach)
			}
		}
		memGot, _, err := mem.ReachFromCounted(ctx, seeds, dst, iv, BMBFS)
		if err != nil {
			t.Fatal(err)
		}
		if memGot != wantReach {
			t.Fatalf("mem reach from %v to %d over %v: got %v, want %v",
				seeds, dst, iv, memGot, wantReach)
		}
	}
	if positives == 0 {
		t.Fatal("degenerate workload: no positive multi-source queries")
	}
}

// TestSetIsSortedAndDeduped pins the sweep's output contract: one entry per
// object, ascending, whichever way it runs.
func TestSetIsSortedAndDeduped(t *testing.T) {
	f := newFixture(t, 30, 200, 5)
	ix, err := Build(f.g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate, unsorted seeds on purpose.
	seeds := seedsOf(7, 3, 7, 3, 12)
	for _, dir := range []queries.Direction{queries.Forward, queries.Backward} {
		prof, _, err := ix.AppendProfile(context.Background(), nil, seeds, contact.Interval{Lo: 10, Hi: 90}, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		set := objectsOf(prof)
		for i := 1; i < len(set); i++ {
			if set[i] <= set[i-1] {
				t.Fatalf("direction %d: set not strictly ascending at %d: %v", dir, i, set)
			}
		}
	}
}

// TestCancelledContextStopsTraversal feeds an already-cancelled context to
// every traversal entry point: the expansion loops observe ctx, so the
// query must return ctx.Err() instead of completing (the hung-query
// guarantee of the serving layer).
func TestCancelledContextStopsTraversal(t *testing.T) {
	f := newFixture(t, 40, 300, 11)
	ix, err := Build(f.g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMem(f.g, []int{2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := f.workload(1, 200, 280, 3)[0]
	q.Dst = q.Src // force src != dst below
	for q.Dst == q.Src {
		q.Dst++
	}
	for _, s := range []Strategy{BMBFS, BBFS, EBFS, EDFS} {
		if _, _, err := ix.ReachStrategyCounted(ctx, q, s, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("disk %v: got %v, want context.Canceled", s, err)
		}
		if _, _, err := mem.ReachStrategyCounted(ctx, q, s); !errors.Is(err, context.Canceled) {
			t.Errorf("mem %v: got %v, want context.Canceled", s, err)
		}
	}
	for _, dir := range []queries.Direction{queries.Forward, queries.Backward} {
		if _, _, err := ix.AppendProfile(ctx, nil, seedsOf(q.Src), q.Interval, dir, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("disk sweep, direction %d: got %v, want context.Canceled", dir, err)
		}
		if _, _, err := mem.AppendProfile(ctx, nil, seedsOf(q.Src), q.Interval, dir); !errors.Is(err, context.Canceled) {
			t.Errorf("mem sweep, direction %d: got %v, want context.Canceled", dir, err)
		}
	}
}

func equalIDSlices(a, b []trajectory.ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
