package streach_test

import (
	"context"
	"testing"

	"streach"
	"streach/internal/contact"
)

// bidir_test.go pins the bidirectional planner: meet semantics where the
// forward and backward frontiers touch exactly at a slab boundary tick,
// odd slab widths against the oracle, and LiveEngine routing with dirty
// delta slabs.

var bidirBackends = []string{"bidir:oracle", "bidir:reachgraph", "bidir:reachgraph-mem"}

// TestBidirMeetAtSlabBoundary is the meet-semantics regression: contact
// chains whose every hand-off sits on a slab edge, so the two frontiers
// meet exactly at a boundary tick. The forward chain transfers in
// ascending time order (every prefix delivers); the reversed chain places
// the same contacts in descending time order, so the item always misses
// its next carrier — the planner must prove the negative at the same
// boundary ticks. Both chains run all (src, dst) pairs over all
// edge-aligned intervals against the unsegmented oracle.
func TestBidirMeetAtSlabBoundary(t *testing.T) {
	chains := map[string][]contact.Contact{
		"forward": slabEdgeContacts,
		// Time-mirrored hand-offs: 3–4 happens before 2–3, and so on. An
		// item starting at 0 reaches 1 at tick 23 but every onward contact
		// is already in the past; the backward frontier of 4 likewise
		// collapses to {3, 4} by tick 7. The frontiers stay disjoint and
		// close their gap exactly at the slab 1/2 edge.
		"reversed": {
			{A: 3, B: 4, Validity: contact.Interval{Lo: 7, Hi: 7}},
			{A: 2, B: 3, Validity: contact.Interval{Lo: 8, Hi: 8}},
			{A: 1, B: 2, Validity: contact.Interval{Lo: 15, Hi: 16}},
			{A: 0, B: 1, Validity: contact.Interval{Lo: 23, Hi: 23}},
		},
	}
	ctx := context.Background()
	for label, chain := range chains {
		src := streach.WrapContactNetwork(contact.FromContacts(slabEdgeObjects, slabEdgeNumTicks, chain))
		oracle, err := streach.Open("oracle", src, streach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range bidirBackends {
			e, err := streach.Open(name, src, streach.Options{SegmentTicks: slabEdgeTicks})
			if err != nil {
				t.Fatalf("open %q: %v", name, err)
			}
			assertSlabEdgeConformance(t, ctx, e, oracle, label+"/"+name)
		}
	}
}

// TestBidirOddSlabWidths runs the bidirectional backends against the
// oracle on a random-waypoint feed for slab widths that do not divide the
// time domain — the last slab is ragged, so the backward walk starts on a
// short slab and the meet tick rarely aligns with anything.
func TestBidirOddSlabWidths(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 40, NumTicks: 300, Seed: 77,
	})
	oracle := ds.Contacts().Oracle()
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(),
		NumTicks:   ds.NumTicks(),
		Count:      60,
		MinLen:     5,
		MaxLen:     ds.NumTicks(),
		Seed:       19,
	})
	ctx := context.Background()
	for _, width := range []int{7, 33, 64} {
		for _, name := range bidirBackends {
			e, err := streach.Open(name, ds, streach.Options{SegmentTicks: width})
			if err != nil {
				t.Fatalf("open %q width %d: %v", name, width, err)
			}
			for _, q := range work {
				r, err := e.Reachable(ctx, q)
				if err != nil {
					t.Fatalf("%s width %d %v: %v", name, width, q, err)
				}
				if want := oracle.Reachable(q); r.Reachable != want {
					t.Fatalf("%s width %d disagrees with oracle on %v: got %v, want %v",
						name, width, q, r.Reachable, want)
				}
			}
		}
	}
}

// TestBidirExpandsLessOnLongIntervals holds the planner to what it is for:
// on intervals pinned to three quarters of the time domain, where a forward
// frontier saturates the population while the destination's deliverer set
// stays small, meet-in-the-middle expands at most 70% of what the forward
// slab plan expands, per index family. Expansion counts are exact and
// repeat run for run; latency is the benchmark's business (bidir.* in
// benchmark/), not this test's.
func TestBidirExpandsLessOnLongIntervals(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 48, NumTicks: 240, Seed: 49,
	})
	long := 3 * ds.NumTicks() / 4
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(),
		NumTicks:   ds.NumTicks(),
		Count:      24,
		MinLen:     long,
		MaxLen:     long,
		Seed:       78,
	})
	opts := streach.Options{SegmentTicks: ds.NumTicks() / 8}
	ctx := context.Background()
	expanded := func(name string) int {
		e, err := streach.Open(name, ds, opts)
		if err != nil {
			t.Fatalf("open %q: %v", name, err)
		}
		total := 0
		for _, q := range work {
			r, err := e.Reachable(ctx, q)
			if err != nil {
				t.Fatalf("%s %v: %v", name, q, err)
			}
			total += r.Expanded
		}
		return total
	}
	for _, family := range []string{"reachgraph", "reachgraph-mem"} {
		fwd, bi := expanded("segmented:"+family), expanded("bidir:"+family)
		if fwd == 0 || bi == 0 || bi*10 > fwd*7 {
			t.Errorf("%s: bidir expanded %d, segmented %d; want at most 70%%", family, bi, fwd)
		}
	}
}

// TestBidirLiveEngineDirtyDeltas opens live engines under the bidir:
// prefix and feeds them entirely through late events: the clock advances
// first (sealing every slab empty), then the contacts arrive out of order
// behind the frontier, with a slice of them retracted again. Every sealed
// slab is then served through its dirty delta overlay — the worst case for
// backward planning, since the overlay core replaces the sealed index.
// Answers must match the oracle over the engine's own snapshot both before
// and after compaction folds the deltas into fresh sealed segments.
func TestBidirLiveEngineDirtyDeltas(t *testing.T) {
	const numObjects, numTicks, width = 14, 96, 16
	var events []streach.ContactEvent
	for tk := 0; tk < numTicks; tk++ {
		for k := 0; k < 3; k++ {
			a := streach.ObjectID((tk*3 + k*5) % numObjects)
			b := streach.ObjectID((tk + k*7 + 1) % numObjects)
			if a != b {
				events = append(events, streach.ContactEvent{Tick: streach.Tick(tk), A: a, B: b})
			}
		}
	}
	// Deterministic shuffle so the late adds land across slabs out of order.
	for i := len(events) - 1; i > 0; i-- {
		j := (i*2654435761 + 17) % (i + 1)
		events[i], events[j] = events[j], events[i]
	}
	ctx := context.Background()
	env := streach.NewEnv(1000, 1000)
	for _, base := range []string{"bidir:oracle", "bidir:reachgraph", "bidir:reachgraph-mem"} {
		le, err := streach.NewLiveEngine(base, numObjects, env, 50, streach.Options{SegmentTicks: width})
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		if want := "live:" + base; le.Name() != want {
			t.Errorf("Name = %q, want %q", le.Name(), want)
		}
		if err := le.AdvanceTo(numTicks - 1); err != nil {
			t.Fatal(err)
		}
		if _, err := le.Ingest(events); err != nil {
			t.Fatal(err)
		}
		// Retract a slice of what just landed.
		var retractions []streach.ContactEvent
		for i := 0; i < len(events); i += 7 {
			ev := events[i]
			ev.Retract = true
			retractions = append(retractions, ev)
		}
		if rep, err := le.Ingest(retractions); err != nil {
			t.Fatal(err)
		} else if rep.Retracted == 0 {
			t.Fatalf("%s: no retraction applied", base)
		}
		dirty := 0
		for _, st := range le.SegmentStats() {
			if st.DeltaEvents > 0 {
				dirty++
			}
		}
		if dirty == 0 {
			t.Fatalf("%s: expected dirty delta slabs, all clean", base)
		}
		check := func(stage string) {
			oracle := le.Snapshot().Oracle()
			work := streach.RandomQueries(streach.WorkloadOptions{
				NumObjects: numObjects, NumTicks: numTicks,
				Count: 80, MinLen: 4, MaxLen: numTicks, Seed: 5,
			})
			for _, q := range work {
				r, err := le.Reachable(ctx, q)
				if err != nil {
					t.Fatalf("%s %s %v: %v", base, stage, q, err)
				}
				if want := oracle.Reachable(q); r.Reachable != want {
					t.Fatalf("%s %s disagrees with oracle on %v: got %v, want %v",
						base, stage, q, r.Reachable, want)
				}
			}
		}
		check("dirty")
		if n, err := le.Compact(); err != nil {
			t.Fatal(err)
		} else if n != dirty {
			t.Fatalf("%s: compacted %d segments, want %d", base, n, dirty)
		}
		check("compacted")
	}
}
