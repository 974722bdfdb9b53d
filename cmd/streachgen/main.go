// Command streachgen generates and inspects synthetic contact datasets.
//
// Usage:
//
//	streachgen -kind rwp -objects 500 -ticks 2000 -seed 7          # summary
//	streachgen -kind vn -objects 200 -contacts                     # + contact stats
//	streachgen -kind taxi -csv /tmp/vnr.csv                        # trajectory CSV
//	streachgen -kind rwp -backend reachgraph -queries 100          # serve a workload
//	streachgen -kind clustered -clusters 12 -roam 0.002            # sharding preset
//	streachgen -kind rwp -lifetime 5 -backend reachgraph           # non-immediate net
//
// The CSV format is one row per (object, tick): object,tick,x,y. With
// -backend, the named registry backend (see -backend list) is opened over
// the generated dataset and a random workload is batch-evaluated through
// it, reporting per-query I/O and latency.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"streach"
)

func main() {
	var (
		kind        = flag.String("kind", "rwp", "dataset kind: rwp | vn | taxi | clustered")
		objects     = flag.Int("objects", 200, "number of moving objects")
		ticks       = flag.Int("ticks", 1000, "time-domain length in ticks (rwp/vn/clustered)")
		minutes     = flag.Int("minutes", 120, "trace length in minutes (taxi)")
		clusters    = flag.Int("clusters", 0, "home regions (clustered; 0 = default)")
		roam        = flag.Float64("roam", 0, "per-waypoint roaming probability (clustered; 0 = default)")
		seed        = flag.Int64("seed", 1, "generator seed")
		contactsFlg = flag.Bool("contacts", false, "extract and summarize the contact network")
		csvPath     = flag.String("csv", "", "write trajectories as CSV to this path")
		backend     = flag.String("backend", "", "registry backend to serve -queries through ('list' to enumerate)")
		queriesFlg  = flag.Int("queries", 0, "random queries to evaluate against -backend")
		workers     = flag.Int("workers", 0, "batch worker-pool bound (default GOMAXPROCS)")
		lifetime    = flag.Int("lifetime", -1, "non-immediate item lifetime in ticks (§7); -1 = immediate contacts")
	)
	flag.Parse()

	if *backend == "list" {
		for _, info := range streach.BackendInfos() {
			fmt.Printf("%-16s %s\n", info.Name, info.Description)
		}
		return
	}

	var ds *streach.Dataset
	switch *kind {
	case "rwp":
		ds = streach.GenerateRandomWaypoint(streach.RWPOptions{
			NumObjects: *objects, NumTicks: *ticks, Seed: *seed,
		})
	case "vn":
		ds = streach.GenerateVehicles(streach.VNOptions{
			NumObjects: *objects, NumTicks: *ticks, Seed: *seed,
		})
	case "taxi":
		ds = streach.GenerateTaxiDay(streach.TaxiOptions{
			NumObjects: *objects, NumMinutes: *minutes, Seed: *seed,
		})
	case "clustered":
		ds = streach.GenerateClustered(streach.ClusteredOptions{
			NumObjects: *objects, NumTicks: *ticks,
			NumClusters: *clusters, RoamProb: *roam, Seed: *seed,
		})
	default:
		fmt.Fprintf(os.Stderr, "streachgen: unknown kind %q\n", *kind)
		os.Exit(2)
	}

	env := ds.Env()
	fmt.Printf("dataset    %s\n", ds.Name())
	fmt.Printf("objects    %d\n", ds.NumObjects())
	fmt.Printf("ticks      %d\n", ds.NumTicks())
	fmt.Printf("env        %.0f m × %.0f m\n", env.Width(), env.Height())
	fmt.Printf("contact dT %.0f m\n", ds.ContactDist())
	fmt.Printf("raw size   %d bytes\n", ds.SizeBytes())

	// With -lifetime ≥ 0 the non-immediate contacts are extracted and folded
	// into an undirected network; -contacts and -backend both run over that
	// projection instead of the immediate contact network.
	var nonimm *streach.ContactNetwork
	if *lifetime >= 0 {
		nonimm = ds.NonImmediateContacts(*lifetime)
		fmt.Printf("lifetime   %d ticks (non-immediate projection)\n", *lifetime)
	}

	if *contactsFlg {
		cn := nonimm
		if cn == nil {
			cn = ds.Contacts()
		}
		fmt.Printf("contacts   %d\n", cn.NumContacts())
		var longest, total int
		for _, c := range cn.All() {
			n := c.Validity.Len()
			total += n
			if n > longest {
				longest = n
			}
		}
		if cn.NumContacts() > 0 {
			fmt.Printf("mean validity  %.1f ticks\n", float64(total)/float64(cn.NumContacts()))
			fmt.Printf("max validity   %d ticks\n", longest)
		}
	}

	if *csvPath != "" {
		if err := writeCSV(ds, *csvPath); err != nil {
			fmt.Fprintf(os.Stderr, "streachgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("csv        %s\n", *csvPath)
	}

	if *backend != "" {
		var src streach.Source = ds
		if nonimm != nil {
			src = nonimm
		}
		if err := serve(src, ds.NumObjects(), ds.NumTicks(), *backend, *queriesFlg, *workers, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "streachgen: %v\n", err)
			os.Exit(1)
		}
	}
}

// serve opens the named backend over src and batch-evaluates a random
// workload through it, summarizing the typed per-query results.
func serve(src streach.Source, numObjects, numTicks int, backend string, count, workers int, seed int64) error {
	if count <= 0 {
		count = 50
	}
	e, err := streach.Open(backend, src, streach.Options{})
	if err != nil {
		return err
	}
	work := streach.RandomQueries(streach.WorkloadOptions{
		NumObjects: numObjects,
		NumTicks:   numTicks,
		Count:      count,
		Seed:       seed + 13,
	})
	start := time.Now()
	results, err := streach.EvaluateBatch(context.Background(), e, work,
		streach.BatchOptions{Workers: workers})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	var positive, expanded int
	var io float64
	var lat time.Duration
	for _, r := range results {
		if r.Reachable {
			positive++
		}
		io += r.IO.Normalized
		lat += r.Latency
		expanded += r.Expanded
	}
	n := len(results)
	fmt.Printf("\nbackend    %s\n", e.Name())
	if b := e.Stats().IndexBytes; b > 0 {
		fmt.Printf("index      %d KiB on disk\n", b/1024)
	}
	fmt.Printf("queries    %d (%d positive)\n", n, positive)
	fmt.Printf("IO/query   %.1f normalized\n", io/float64(n))
	fmt.Printf("lat/query  %s (batch wall %s)\n",
		(lat / time.Duration(n)).Round(time.Microsecond), wall.Round(time.Millisecond))
	fmt.Printf("expanded   %.1f per query\n", float64(expanded)/float64(n))
	return nil
}

func writeCSV(ds *streach.Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "object,tick,x,y")
	for o := 0; o < ds.NumObjects(); o++ {
		for t := 0; t < ds.NumTicks(); t++ {
			p := ds.Position(streach.ObjectID(o), streach.Tick(t))
			fmt.Fprintf(w, "%d,%d,%.2f,%.2f\n", o, t, p.X, p.Y)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
