package reachgrid

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"streach/internal/contact"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// TestMultiSourceMatchesOracle checks the multi-seed guided expansion
// against the oracle's multi-source propagation — the contract the
// cross-segment planner depends on.
func TestMultiSourceMatchesOracle(t *testing.T) {
	d := testDataset(t, 35, 220, 17)
	ix := buildIndex(t, d, Params{})
	oracle := queries.NewOracle(contact.Extract(d))
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	var positives int
	for trial := 0; trial < 40; trial++ {
		seeds := make([]trajectory.ObjectID, 1+rng.Intn(5))
		for i := range seeds {
			seeds[i] = trajectory.ObjectID(rng.Intn(d.NumObjects()))
		}
		dst := trajectory.ObjectID(rng.Intn(d.NumObjects()))
		lo := trajectory.Tick(rng.Intn(d.NumTicks() - 60))
		iv := contact.Interval{Lo: lo, Hi: lo + trajectory.Tick(20+rng.Intn(100))}

		wantSet := oracle.ReachableSetFrom(seeds, iv)
		gotSet, err := reachableSetFrom(ctx, ix, seeds, iv)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotSet) != len(wantSet) {
			t.Fatalf("set from %v over %v: got %v, want %v", seeds, iv, gotSet, wantSet)
		}
		for i := range gotSet {
			if gotSet[i] != wantSet[i] {
				t.Fatalf("set from %v over %v: got %v, want %v", seeds, iv, gotSet, wantSet)
			}
		}

		wantReach, _ := oracle.ReachableFromCounted(seeds, dst, iv)
		if wantReach {
			positives++
		}
		got, _, err := ix.ReachFromCounted(ctx, seeds, dst, iv, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantReach {
			t.Fatalf("reach from %v to %d over %v: got %v, want %v", seeds, dst, iv, got, wantReach)
		}
	}
	if positives == 0 {
		t.Fatal("degenerate workload: no positive multi-source queries")
	}
}

// TestCancelledContextStopsSweep feeds an already-cancelled context to the
// guided expansion and the SPJ pipeline: both observe ctx inside their
// instant loops and must return ctx.Err() promptly.
func TestCancelledContextStopsSweep(t *testing.T) {
	d := testDataset(t, 30, 200, 8)
	ix := buildIndex(t, d, Params{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := queries.Query{Src: 0, Dst: 1, Interval: contact.Interval{Lo: 0, Hi: 180}}
	if _, _, err := ix.ReachCounted(ctx, q, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("ReachCounted: got %v, want context.Canceled", err)
	}
	if _, _, err := ix.SPJReachCounted(ctx, q, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("SPJReachCounted: got %v, want context.Canceled", err)
	}
	if _, err := reachableSetFrom(ctx, ix, []trajectory.ObjectID{0}, q.Interval); !errors.Is(err, context.Canceled) {
		t.Errorf("AppendSemProfileFrom: got %v, want context.Canceled", err)
	}
}
