// Livefeed: serving reachability queries over a live location feed.
//
// A location feed arrives one instant at a time — there is no complete
// trajectory archive to batch-index. A LiveEngine ingests positions as
// they come: appends land in a mutable in-memory tail segment, and every
// time the current time slab closes it is sealed into an immutable
// ReachGraph segment (LSM-style). Analysts query at any moment — while
// ingestion continues — and the cross-segment planner answers over sealed
// segments plus the tail, so no index is ever rebuilt over history.
//
// The snapshot path (LiveEngine.Snapshot → Open) — rebuild a full index
// over everything ingested so far — is shown at the end for validation
// against ground truth.
package main

import (
	"context"
	"fmt"
	"log"

	"streach"
)

func main() {
	// The "live" source: a generated dataset we replay instant by instant.
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 300,
		NumTicks:   1200,
		Seed:       41,
	})
	live, err := streach.NewLiveEngine("reachgraph", ds.NumObjects(), ds.Env(), ds.ContactDist(),
		streach.Options{SegmentTicks: 200})
	if err != nil {
		log.Fatal(err)
	}

	positions := make([]streach.Point, ds.NumObjects())
	feed := func(upto int) {
		for tk := live.NumTicks(); tk < upto; tk++ {
			for o := range positions {
				positions[o] = ds.Position(streach.ObjectID(o), streach.Tick(tk))
			}
			if err := live.AddInstant(positions); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Analysts check in at three points of the day; the engine answers
	// immediately — no snapshot, no rebuild.
	ctx := context.Background()
	oracle := ds.Contacts().Oracle() // ground truth over the full archive
	for _, checkpoint := range []int{400, 800, 1200} {
		feed(checkpoint)
		// Queries about the recent past — the last ~30 minutes of feed.
		lo := streach.Tick(checkpoint - 300)
		all := streach.RandomQueries(streach.WorkloadOptions{
			NumObjects: ds.NumObjects(),
			NumTicks:   checkpoint,
			Count:      200,
			MinLen:     100,
			MaxLen:     250,
			Seed:       int64(checkpoint),
		})
		recent := all[:0]
		for _, q := range all {
			if q.Interval.Lo >= lo {
				recent = append(recent, q)
			}
		}
		results, err := streach.EvaluateBatch(ctx, live, recent, streach.BatchOptions{})
		if err != nil {
			log.Fatal(err)
		}
		var positive int
		for _, r := range results {
			if r.Reachable != oracle.Reachable(r.Query) {
				log.Fatalf("live engine disagrees with ground truth on %v", r.Query)
			}
			if r.Reachable {
				positive++
			}
		}
		fmt.Printf("tick %4d: %d sealed segments + tail; answered %3d queries (%3d positive), all verified\n",
			checkpoint, live.NumSealedSegments(), len(results), positive)
	}

	// The per-segment view: spans, accumulated I/O, on-disk size.
	if seg, ok := streach.Engine(live).(streach.Segmented); ok {
		for i, s := range seg.SegmentStats() {
			fmt.Printf("  segment %d: span %v, %.1f IOs served, %d KiB\n",
				i, s.Span, s.IO.Normalized, s.IndexBytes/1024)
		}
	}

	// The snapshot path exists for batch tooling: a LiveEngine snapshot is
	// a registry Source.
	snap := live.Snapshot()
	batch, err := streach.Open("reachgraph", snap, streach.Options{})
	if err != nil {
		log.Fatal(err)
	}
	q := streach.Query{Src: 3, Dst: 11, Interval: streach.NewInterval(900, 1150)}
	rLive, err := live.Reachable(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	rBatch, err := batch.Reachable(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spot check %v: live=%v batch=%v oracle=%v\n",
		q, rLive.Reachable, rBatch.Reachable, oracle.Reachable(q))
}
