// Command reachbench regenerates the tables and figures of the paper's
// evaluation section (§6) on laptop-scale datasets.
//
// Usage:
//
//	reachbench -exp all                # every artifact, paper order
//	reachbench -exp fig13,table5b      # selected artifacts
//	reachbench -list                   # available experiment ids
//	reachbench -exp fig14 -queries 200 -ticks 4000 -scale large
//	reachbench -exp backends -backends reachgrid,reachgraph
//
// Each experiment prints a table whose rows mirror the series of the paper
// artifact, with a footnote quoting the paper-reported numbers for
// comparison. The system's evaluators are drawn from the public backend
// registry (streach.Backends); the §6 baselines (SPJ, GRAIL, B-BFS, E-BFS,
// E-DFS) are built by the lab itself and appear in spj, fig13, table5a,
// table5b and ablation-bidir. The "backends" experiment sweeps every
// registered backend, restricted by the -backends flag.
//
// The tables reproduce the paper. How this repository's performance moves
// from commit to commit is measured by benchmark/ (see BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"streach"
	"streach/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		list     = flag.Bool("list", false, "list available experiment ids and exit")
		queries  = flag.Int("queries", 0, "random queries per measurement point (default 50; 12 at -scale tiny, 100 at large)")
		ticks    = flag.Int("ticks", 0, "time-domain length in ticks (default 2000)")
		seed     = flag.Int64("seed", 1, "generator seed")
		scale    = flag.String("scale", "small", "dataset scale: tiny | small | medium | large")
		backends = flag.String("backends", "", "comma-separated registry backends for the 'backends' experiment (default: all)")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		fmt.Println("\nregistered backends:")
		for _, info := range streach.BackendInfos() {
			fmt.Printf("  %-16s %s\n", info.Name, info.Description)
		}
		return
	}

	opts := bench.Options{Queries: *queries, Ticks: *ticks, Seed: *seed}
	if *backends != "" {
		opts.Backends = strings.Split(*backends, ",")
		for i := range opts.Backends {
			opts.Backends[i] = strings.TrimSpace(opts.Backends[i])
			if _, ok := streach.LookupBackend(opts.Backends[i]); !ok {
				fmt.Fprintf(os.Stderr, "reachbench: unknown backend %q (available: %s)\n",
					opts.Backends[i], strings.Join(streach.Backends(), ", "))
				os.Exit(2)
			}
		}
	}
	switch *scale {
	case "tiny":
		// CI smoke preset: seconds, not minutes.
		opts.RWPSizes = []int{48}
		opts.VNSizes = []int{24}
		if opts.Ticks == 0 {
			opts.Ticks = 240
		}
		if opts.Queries == 0 {
			opts.Queries = 12
		}
	case "small":
		// Defaults.
	case "medium":
		opts.RWPSizes = []int{200, 400, 800}
		opts.VNSizes = []int{100, 200, 400}
		if opts.Ticks == 0 {
			opts.Ticks = 4000
		}
	case "large":
		opts.RWPSizes = []int{500, 1000, 2000}
		opts.VNSizes = []int{250, 500, 1000}
		if opts.Ticks == 0 {
			opts.Ticks = 8000
		}
		if opts.Queries == 0 {
			opts.Queries = 100
		}
	default:
		fmt.Fprintf(os.Stderr, "reachbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	lab := bench.NewLab(opts)

	ids := bench.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	start := time.Now()
	for _, id := range ids {
		id = strings.TrimSpace(id)
		run := lab.ByID(id)
		if run == nil {
			fmt.Fprintf(os.Stderr, "reachbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		t0 := time.Now()
		table := run()
		table.Render(os.Stdout)
		fmt.Printf("  [%s took %s]\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))
}
