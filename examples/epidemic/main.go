// Epidemic: the public-health scenario from the paper's introduction.
//
// A set of individuals is known to carry a contagious virus. Batch forward
// reachability queries over the contact network identify everyone who could
// have been directly or indirectly contaminated within a time window — the
// candidates for timely medication.
//
// The example contrasts the paper's two indexes on the same query — the
// guided ReachGrid expansion and the ReachGraph traversal — reading both
// backends from the registry, checking that they agree and comparing their
// per-query I/O deltas.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"streach"
)

func main() {
	// A township of 800 pedestrians tracked for 3000 instants (~5 hours).
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 800,
		NumTicks:   3000,
		Seed:       11,
	})
	ctx := context.Background()
	grid, err := streach.Open("reachgrid", ds, streach.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Three index cases, reported at tick 400; exposure horizon of 100
	// instants (~10 minutes — beyond that the infection wavefront covers
	// the whole township and screening everyone is the only answer).
	carriers := []streach.ObjectID{42, 310, 777}
	window := streach.NewInterval(400, 500)

	exposed := map[streach.ObjectID]bool{}
	for _, carrier := range carriers {
		set, err := grid.ReachableSet(ctx, carrier, window)
		if err != nil {
			log.Fatal(err)
		}
		for _, o := range set.Objects {
			exposed[o] = true
		}
		fmt.Printf("carrier %3d exposes %3d individuals during %v (%.1f IOs, %v)\n",
			carrier, len(set.Objects)-1, window, set.IO.Normalized, set.Latency.Round(set.Latency/100+1))
	}

	all := make([]int, 0, len(exposed))
	for o := range exposed {
		all = append(all, int(o))
	}
	sort.Ints(all)
	fmt.Printf("\n%d of %d individuals need screening\n", len(all), ds.NumObjects())
	fmt.Printf("first 20 case IDs: %v\n", all[:min(20, len(all))])

	// Cost comparison for one representative contact-tracing query: the
	// on-the-fly grid expansion vs the precomputed contact-network DAG,
	// each cost read off the query's own Result — no counter resets needed.
	victim := streach.ObjectID(all[len(all)/2])
	q := streach.Query{Src: carriers[0], Dst: victim, Interval: window}

	guided, err := grid.Reachable(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	graph, err := streach.Open("reachgraph", ds, streach.Options{})
	if err != nil {
		log.Fatal(err)
	}
	traversed, err := graph.Reachable(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	if guided.Reachable != traversed.Reachable {
		log.Fatalf("%v: reachgrid says %v, reachgraph %v", q, guided.Reachable, traversed.Reachable)
	}

	fmt.Printf("\ntracing %v (reachable: %v):\n", q, guided.Reachable)
	fmt.Printf("  ReachGrid guided expansion: %8.1f normalized IOs (%d objects expanded)\n",
		guided.IO.Normalized, guided.Expanded)
	fmt.Printf("  ReachGraph BM-BFS:          %8.1f normalized IOs (%d vertices visited)\n",
		traversed.IO.Normalized, traversed.Expanded)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
