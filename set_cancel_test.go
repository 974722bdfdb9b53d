package streach_test

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"streach"
)

// set_cancel_test.go is the regression suite for cancelling a reachable-set
// sweep: cancelling the context inside the sweep must abort promptly, and
// the I/O accounting must stay balanced — the cancelled set query charges
// the cumulative totals for the pages it actually read (and returns no
// delta), while later successful queries' deltas sum exactly on top.
// Nothing may be double-counted.

// cancelAfterCtx reports Canceled from its Nth Err() call on, making
// mid-sweep cancellation deterministic (the sweeps poll Err per expansion
// step).
type cancelAfterCtx struct {
	context.Context
	remaining atomic.Int32
}

func cancelAfter(n int32) *cancelAfterCtx {
	c := &cancelAfterCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *cancelAfterCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestSetCancelAccounting(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 32, NumTicks: 120, Seed: 9,
	})
	iv := streach.NewInterval(0, 60)
	oracle, err := streach.Open("oracle", ds, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.ReachableSet(context.Background(), 0, iv)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(want.Objects); n < 3 || n == ds.NumObjects() {
		t.Fatalf("fixture reaches %d of %d objects; want a set that can be wrong", n, ds.NumObjects())
	}
	// Disk-resident backends, each sweeping sets its own way: the graph's
	// DN1 sweep, the grid's guided sweep, the cross-segment planner, and the
	// scatter-gather planner, whose rounds stop at the first failing owner
	// sweep.
	for _, name := range []string{"reachgraph", "reachgrid", "segmented:reachgraph",
		"shard:4:reachgraph", "shard:4:spatial:reachgraph"} {
		t.Run(name, func(t *testing.T) {
			pool := streach.NewBufferPool(64)
			e, err := streach.Open(name, ds, streach.Options{Pool: pool, SegmentTicks: 32})
			if err != nil {
				t.Fatal(err)
			}
			base := pool.Stats()

			// Cancel deep inside the sweep: the entry check and the first
			// expansion steps run, reading pages, then Err flips.
			_, err = e.ReachableSet(cancelAfter(8), 0, iv)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-set cancel: got %v, want context.Canceled", err)
			}
			afterCancel := e.Stats().IO
			if afterCancel.RandomReads+afterCancel.SequentialReads == 0 {
				t.Fatal("cancelled set charged no I/O at all; cancellation fired before any page was read")
			}
			// The cancelled query's partial charges must already be
			// consistent with the pool: totals count exactly the pool
			// misses, hits exactly the pool hits.
			ps := pool.Stats()
			if got, want := afterCancel.RandomReads+afterCancel.SequentialReads, ps.Misses-base.Misses; got != want {
				t.Fatalf("after cancel: totals count %d page fetches, pool saw %d misses", got, want)
			}
			if got, want := afterCancel.BufferHits, ps.Hits-base.Hits; got != want {
				t.Fatalf("after cancel: totals count %d hits, pool saw %d", got, want)
			}

			// A successful set query after the cancellation: its delta must
			// sum exactly onto the totals.
			r, err := e.ReachableSet(context.Background(), 0, iv)
			if err != nil {
				t.Fatal(err)
			}
			after := e.Stats().IO
			if got, want := after.RandomReads-afterCancel.RandomReads, r.IO.RandomReads; got != want {
				t.Fatalf("set delta random=%d but totals moved by %d", want, got)
			}
			if got, want := after.SequentialReads-afterCancel.SequentialReads, r.IO.SequentialReads; got != want {
				t.Fatalf("set delta sequential=%d but totals moved by %d", want, got)
			}
			if got, want := after.BufferHits-afterCancel.BufferHits, r.IO.BufferHits; got != want {
				t.Fatalf("set delta hits=%d but totals moved by %d", want, got)
			}
			ps = pool.Stats()
			if got, want := after.RandomReads+after.SequentialReads, ps.Misses-base.Misses; got != want {
				t.Fatalf("after success: totals count %d page fetches, pool saw %d misses", got, want)
			}

			// The answer itself must be the oracle's, member for member.
			if !slices.Equal(r.Objects, want.Objects) {
				t.Fatalf("set %v, oracle %v", r.Objects, want.Objects)
			}
		})
	}
}

// TestSetFallbackPreCancelled asserts the entry check: a context cancelled
// before the call evaluates nothing and charges nothing.
func TestSetFallbackPreCancelled(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 16, NumTicks: 60, Seed: 10,
	})
	e, err := streach.Open("reachgraph", ds, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ReachableSet(ctx, 0, streach.NewInterval(0, 50)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if tot := e.Stats().IO; tot.RandomReads+tot.SequentialReads+tot.BufferHits != 0 {
		t.Fatalf("pre-cancelled set still charged I/O: %+v", tot)
	}
}
