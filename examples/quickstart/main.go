// Quickstart: generate a small contact dataset, open both paper indexes
// from the backend registry, and answer a handful of reachability queries,
// cross-checking the indexes against the brute-force oracle. Backends are
// selected by name — swap the strings to try any of streach.Backends().
package main

import (
	"context"
	"fmt"
	"log"

	"streach"
)

func main() {
	// 500 pedestrians with Bluetooth-range (25 m) contacts, sampled every
	// 6 seconds for 2000 instants (~3.3 hours).
	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: 500,
		NumTicks:   2000,
		Seed:       1,
	})
	fmt.Printf("dataset %s: %d objects × %d ticks, dT = %.0f m\n",
		ds.Name(), ds.NumObjects(), ds.NumTicks(), ds.ContactDist())
	fmt.Printf("contact network: %d contacts\n", ds.Contacts().NumContacts())
	fmt.Printf("registered backends: %v\n", streach.Backends())

	ctx := context.Background()
	engines := make([]streach.Engine, 0, 3)
	for _, name := range []string{"reachgrid", "reachgraph", "oracle"} {
		e, err := streach.Open(name, ds, streach.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if b := e.Stats().IndexBytes; b > 0 {
			fmt.Printf("%-10s index: %d KiB on disk\n", e.Name(), b/1024)
		}
		engines = append(engines, e)
	}

	queries := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: ds.NumObjects(),
		NumTicks:   ds.NumTicks(),
		Count:      10,
		Seed:       7,
	})

	fmt.Println("\nquery                         grid   graph  oracle")
	totals := make([]float64, len(engines))
	for _, q := range queries {
		answers := make([]streach.Result, len(engines))
		for i, e := range engines {
			r, err := e.Reachable(ctx, q)
			if err != nil {
				log.Fatal(err)
			}
			answers[i] = r
			totals[i] += r.IO.Normalized
		}
		fmt.Printf("%-28s  %-5v  %-5v  %-5v\n", q,
			answers[0].Reachable, answers[1].Reachable, answers[2].Reachable)
		for i, r := range answers {
			if r.Reachable != answers[2].Reachable {
				log.Fatalf("%s disagrees with ground truth on %v", engines[i].Name(), q)
			}
		}
	}

	fmt.Println()
	for i, e := range engines[:2] {
		fmt.Printf("%-10s: %.1f normalized IOs over the batch\n", e.Name(), totals[i])
	}
}
