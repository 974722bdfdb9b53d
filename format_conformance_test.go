package streach_test

import (
	"context"
	"testing"

	"streach"
)

// TestCrossBackendConformanceBothFormats reruns the conformance workload
// with the page format pinned explicitly to each version: disk-resident
// backends (segmented variants included) must agree with the oracle on
// both the fixed-width v1 layout and the varint-delta v2 layout, and the
// v2 indexes must be smaller.
func TestCrossBackendConformanceBothFormats(t *testing.T) {
	ds := conformanceSource(t)
	oracle := ds.Contacts().Oracle()
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(),
		NumTicks:   ds.NumTicks(),
		Count:      40,
		MinLen:     10,
		MaxLen:     ds.NumTicks() / 2,
		Seed:       31,
	})
	ctx := context.Background()

	// The shard rows sweep the scatter-gather coordinator across both
	// partitioners at K ∈ {1, 2, 4}: every per-shard child index must
	// round-trip both page layouts and the coordinator must still agree
	// with the oracle across the cut.
	diskBackends := []string{"reachgrid", "spj", "reachgraph", "reachgraph-bbfs",
		"segmented:reachgrid", "segmented:reachgraph", "bidir:reachgraph",
		"shard:1:reachgraph", "shard:2:reachgraph", "shard:4:reachgraph",
		"shard:1:spatial:reachgraph", "shard:2:spatial:reachgraph", "shard:4:spatial:reachgraph",
		"uncertain:reachgraph"}
	sizes := map[string]map[streach.PageFormat]int64{}
	for _, name := range diskBackends {
		sizes[name] = map[streach.PageFormat]int64{}
		for _, format := range []streach.PageFormat{streach.PageFormatFixed, streach.PageFormatVarint} {
			e, err := streach.Open(name, ds, streach.Options{PageFormat: format})
			if err != nil {
				t.Fatalf("open %q (%v): %v", name, format, err)
			}
			for _, q := range work {
				r, err := e.Reachable(ctx, q)
				if err != nil {
					t.Fatalf("%q (%v) %v: %v", name, format, q, err)
				}
				if want := oracle.Reachable(q); r.Reachable != want {
					t.Fatalf("%q (%v) disagrees with oracle on %v: got %v, want %v",
						name, format, q, r.Reachable, want)
				}
			}
			sr, err := e.ReachableSet(ctx, work[0].Src, work[0].Interval)
			if err != nil {
				t.Fatalf("%q (%v) set: %v", name, format, err)
			}
			want := oracle.ReachableSet(work[0].Src, work[0].Interval)
			if len(sr.Objects) != len(want) {
				t.Fatalf("%q (%v) set size %d, oracle %d", name, format, len(sr.Objects), len(want))
			}
			for i := range want {
				if sr.Objects[i] != want[i] {
					t.Fatalf("%q (%v) set differs at %d", name, format, i)
				}
			}
			sizes[name][format] = e.IndexBytes()
		}
	}
	for name, byFormat := range sizes {
		fixed, varint := byFormat[streach.PageFormatFixed], byFormat[streach.PageFormatVarint]
		if varint >= fixed {
			t.Errorf("%q: varint layout (%d B) not smaller than fixed (%d B)", name, varint, fixed)
		} else {
			t.Logf("%q: %d B fixed → %d B varint (%.0f%%)", name, fixed, varint, 100*float64(varint)/float64(fixed))
		}
	}
}

// TestVarintReadsFewerPages pins what the varint-delta layout is for on
// the query path, not just at rest: the same point-query workload, run
// cold against the two paper indexes built in each format, fetches at
// least 25% fewer pages from the simulated disk in varint-delta than in
// fixed width. The pool holds four pages, too few for either layout to
// stay resident, so the drop is in what a query reads and not a working
// set that happens to fit. Page counts are exact; nothing here depends on
// a clock.
func TestVarintReadsFewerPages(t *testing.T) {
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 48, NumTicks: 240, Seed: 49,
	})
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(),
		NumTicks:   ds.NumTicks(),
		Count:      24,
		Seed:       78,
	})
	ctx := context.Background()
	for _, name := range []string{"reachgraph", "reachgrid"} {
		pages := map[streach.PageFormat]int64{}
		for _, format := range []streach.PageFormat{streach.PageFormatFixed, streach.PageFormatVarint} {
			e, err := streach.Open(name, ds, streach.Options{PageFormat: format, PoolPages: 4})
			if err != nil {
				t.Fatalf("open %q (%v): %v", name, format, err)
			}
			for _, q := range work {
				if _, err := e.Reachable(ctx, q); err != nil {
					t.Fatalf("%q (%v) %v: %v", name, format, q, err)
				}
			}
			io := e.IOTotals()
			pages[format] = io.RandomReads + io.SequentialReads
		}
		fixed, varint := pages[streach.PageFormatFixed], pages[streach.PageFormatVarint]
		if fixed <= 0 || varint <= 0 || varint*4 > fixed*3 {
			t.Errorf("%q: varint-delta read %d pages, fixed %d; want at least 25%% fewer", name, varint, fixed)
		} else {
			t.Logf("%q: %d pages fixed → %d varint-delta (%.0f%%)", name, fixed, varint, 100*float64(varint)/float64(fixed))
		}
	}
}
