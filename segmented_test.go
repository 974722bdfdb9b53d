package streach_test

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"streach"
)

// segmentedPairs maps each segmented backend onto its unsegmented base.
var segmentedPairs = [][2]string{
	{"segmented:reachgrid", "reachgrid"},
	{"segmented:reachgraph", "reachgraph"},
	{"segmented:reachgraph-mem", "reachgraph-mem"},
	{"segmented:oracle", "oracle"},
}

// TestSegmentedAgreesWithBase runs the full conformance workload through
// every segmented engine and its unsegmented counterpart and asserts
// byte-identical answers — point queries and reachable sets — regardless
// of how many slab boundaries a query crosses.
func TestSegmentedAgreesWithBase(t *testing.T) {
	ds := conformanceSource(t)
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(),
		NumTicks:   ds.NumTicks(),
		Count:      60,
		MinLen:     10,
		MaxLen:     ds.NumTicks(), // up to the whole domain: every slab crossed
		Seed:       131,
	})
	ctx := context.Background()
	for _, pair := range segmentedPairs {
		segName, baseName := pair[0], pair[1]
		// A narrow slab width forces multi-segment plans for most queries.
		seg, err := streach.Open(segName, ds, streach.Options{SegmentTicks: 64})
		if err != nil {
			t.Fatalf("open %q: %v", segName, err)
		}
		base, err := streach.Open(baseName, ds, streach.Options{})
		if err != nil {
			t.Fatalf("open %q: %v", baseName, err)
		}
		for _, q := range work {
			sr, err := seg.Reachable(ctx, q)
			if err != nil {
				t.Fatalf("%q %v: %v", segName, q, err)
			}
			br, err := base.Reachable(ctx, q)
			if err != nil {
				t.Fatalf("%q %v: %v", baseName, q, err)
			}
			if sr.Reachable != br.Reachable {
				t.Fatalf("%q disagrees with %q on %v: %v vs %v",
					segName, baseName, q, sr.Reachable, br.Reachable)
			}
		}
		for src := streach.ObjectID(0); src < 6; src++ {
			iv := streach.NewInterval(streach.Tick(30*src), streach.Tick(30*src)+150)
			ss, err := seg.ReachableSet(ctx, src, iv)
			if err != nil {
				t.Fatalf("%q set %d: %v", segName, src, err)
			}
			bs, err := base.ReachableSet(ctx, src, iv)
			if err != nil {
				t.Fatalf("%q set %d: %v", baseName, src, err)
			}
			if !slices.Equal(ss.Objects, bs.Objects) {
				t.Fatalf("%q set %d %v: got %v, base %v", segName, src, iv, ss.Objects, bs.Objects)
			}
		}
	}
}

// TestPlannerReadsOnlyOverlappingSegments asserts the planner's locality
// guarantee via the per-segment I/O counters of Stats().SegmentDetails: a
// query whose interval touches only some slabs must charge zero traffic to
// every other slab — one-directional and bidirectional planners alike, and
// under a shard cut, where every shard's slab chain is summed per slab.
func TestPlannerReadsOnlyOverlappingSegments(t *testing.T) {
	ds := conformanceSource(t) // 400 ticks
	for _, name := range []string{"segmented:reachgraph", "bidir:reachgraph", "shard:2:segmented:reachgraph", "shard:2:bidir:reachgraph"} {
		t.Run(name, func(t *testing.T) {
			e, err := streach.Open(name, ds, streach.Options{SegmentTicks: 50})
			if err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if len(st.SegmentDetails) != 8 || st.Segments != 8 {
				t.Fatalf("got %d segment details for %d segments, want 8", len(st.SegmentDetails), st.Segments)
			}
			// Spans must tile the domain.
			expect := streach.Tick(0)
			for i, s := range st.SegmentDetails {
				if s.Span.Lo != expect {
					t.Fatalf("segment %d starts at %d, want %d", i, s.Span.Lo, expect)
				}
				expect = s.Span.Hi + 1
				if s.IO.Normalized != 0 {
					t.Fatalf("segment %d charged %f IOs before any query", i, s.IO.Normalized)
				}
			}
			if int(expect) != ds.NumTicks() {
				t.Fatalf("segments end at %d, want %d", expect, ds.NumTicks())
			}

			// Interval [120, 230] overlaps exactly slabs 2..4.
			iv := streach.NewInterval(120, 230)
			ctx := context.Background()
			for src := streach.ObjectID(0); src < 8; src++ {
				if _, err := e.Reachable(ctx, streach.Query{Src: src, Dst: src + 20, Interval: iv}); err != nil {
					t.Fatal(err)
				}
				if _, err := e.ReachableSet(ctx, src, iv); err != nil {
					t.Fatal(err)
				}
			}
			st = e.Stats()
			var touched float64
			var sum streach.IOStats
			var bytes int64
			for i, s := range st.SegmentDetails {
				inPlan := i >= 2 && i <= 4
				if !inPlan && s.IO.Normalized != 0 {
					t.Errorf("segment %d (span %v) outside the plan charged %.1f IOs", i, s.Span, s.IO.Normalized)
				}
				if inPlan {
					touched += s.IO.Normalized
				}
				sum.RandomReads += s.IO.RandomReads
				sum.SequentialReads += s.IO.SequentialReads
				sum.BufferHits += s.IO.BufferHits
				bytes += s.IndexBytes
			}
			if touched == 0 {
				t.Error("no I/O charged to the overlapping segments")
			}
			// Engine totals must equal the per-segment sums.
			tot := st.IO
			if sum.RandomReads != tot.RandomReads || sum.SequentialReads != tot.SequentialReads ||
				sum.BufferHits != tot.BufferHits {
				t.Errorf("per-segment sum %+v != engine totals %+v", sum, tot)
			}
			if bytes != st.IndexBytes {
				t.Errorf("per-segment index bytes %d != engine's %d", bytes, st.IndexBytes)
			}
		})
	}
}

// TestSegmentedRegistrySurface pins the registry integration: segmented
// names are listed, carry the base's source requirements, and honour
// SegmentTicks.
func TestSegmentedRegistrySurface(t *testing.T) {
	have := map[string]bool{}
	for _, name := range streach.Backends() {
		have[name] = true
	}
	for _, pair := range segmentedPairs {
		if !have[pair[0]] {
			t.Errorf("backend %q not registered", pair[0])
		}
	}
	ds := conformanceSource(t)
	if _, err := streach.Open("segmented:reachgrid", ds.Contacts(), streach.Options{}); !errors.Is(err, streach.ErrNeedsTrajectories) {
		t.Errorf("segmented:reachgrid from contacts: got %v, want ErrNeedsTrajectories", err)
	}
}

// TestCancelledQueryReturnsPromptly cancels contexts against real engines:
// an already-cancelled context must surface context.Canceled even though
// the query would otherwise traverse a large interval, and an in-flight
// cancellation must unblock a batch within a generous bound.
func TestCancelledQueryReturnsPromptly(t *testing.T) {
	ds := conformanceSource(t)
	q := streach.Query{Src: 1, Dst: 2, Interval: streach.NewInterval(0, streach.Tick(ds.NumTicks()-1))}
	for _, name := range []string{"reachgrid", "reachgraph", "segmented:reachgraph"} {
		e, err := streach.Open(name, ds, streach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.Reachable(ctx, q); !errors.Is(err, context.Canceled) {
			t.Errorf("%q: got %v, want context.Canceled", name, err)
		}
	}

	// In-flight: cancel while a batch over a slow backend is running; the
	// traversal-loop ctx checks must unblock it long before the deadline.
	e, err := streach.Open("reachgrid", ds, streach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	work := make([]streach.Query, 64)
	for i := range work {
		work[i] = streach.Query{
			Src: streach.ObjectID(i % ds.NumObjects()), Dst: 0,
			Interval: streach.NewInterval(0, streach.Tick(ds.NumTicks()-1)),
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := streach.EvaluateBatch(ctx, e, work, streach.BatchOptions{Workers: 2})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// Either the batch finished before the cancel landed, or it was
		// cancelled — both are fine; hanging is not.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("batch returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled batch did not return")
	}
}
