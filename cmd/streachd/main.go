// Streachd is the reachability query daemon: it builds (or live-feeds) an
// engine over a synthetic contact dataset and serves the HTTP/JSON API of
// internal/serve — point reachability, streamed reachable sets, earliest
// arrival, top-k, live ingest, stats and Prometheus metrics — with a
// query-result cache and admission control in front of the engine.
//
// Frozen mode (default) indexes a random-waypoint dataset with the chosen
// backend and serves it read-only:
//
//	streachd -backend reachgraph -objects 400 -ticks 1000
//
// Live mode (-live <base backend>) starts a LiveEngine and replays the
// generated dataset as the initial feed; /v1/ingest then appends further
// instants while queries continue:
//
//	streachd -live reachgraph-mem -objects 400 -ticks 1000 -segment-ticks 128
//
// SIGTERM/SIGINT drains gracefully: in-flight queries finish, new work is
// rejected with 503 shutting_down, and the process exits within -grace.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streach"
	"streach/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8317", "listen address")
		backend = flag.String("backend", "reachgraph", "frozen-mode backend, any composed name (see -list), e.g. shard:4:spatial:reachgraph")
		liveStr = flag.String("live", "", "serve a LiveEngine over this base backend (oracle, reachgraph, reachgraph-mem, bidir:<base> for bidirectional point queries, shard:<K>:<base> for per-shard ingest lanes); replays the generated dataset as the initial feed and enables /v1/ingest")
		objects = flag.Int("objects", 400, "dataset objects")
		ticks   = flag.Int("ticks", 1000, "dataset ticks (live mode: preloaded feed instants)")
		seed    = flag.Int64("seed", 42, "dataset seed")

		segmentTicks = flag.Int("segment-ticks", 0, "time-slab width for segmented/live engines (0: default)")
		poolPages    = flag.Int("pool-pages", 0, "buffer-pool pages for disk-resident backends (0: default)")

		ingestHorizon = flag.Int("ingest-horizon", 0, "live mode: reject ingest adds at or past frontier+horizon ticks (0: 4 segment widths, negative: unbounded)")
		compactEvents = flag.Int("compact-events", 0, "live mode: re-seal a dirty segment once its delta log holds this many late/retraction events (0: manual compaction only)")

		cacheEntries = flag.Int("cache", 0, "query-result cache entries (0: 4096, negative: off)")
		maxInFlight  = flag.Int("max-inflight", 0, "concurrent query evaluations (0: 2×GOMAXPROCS)")
		maxQueue     = flag.Int("max-queue", 0, "admission wait-queue depth (0: 64)")
		clientQPS    = flag.Float64("client-qps", 0, "per-client sustained query rate (0: no quotas)")
		clientBurst  = flag.Int("client-burst", 0, "per-client burst size (0: 2×client-qps)")
		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "server-side per-query timeout (0: none)")
		grace        = flag.Duration("grace", 10*time.Second, "shutdown drain deadline")
		list         = flag.Bool("list", false, "list backends and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range streach.Backends() {
			fmt.Println(name)
		}
		return
	}

	log.SetPrefix("streachd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	ds := streach.GenerateRandomWaypoint(streach.RWPOptions{
		NumObjects: *objects,
		NumTicks:   *ticks,
		Seed:       *seed,
	})
	opts := streach.Options{
		SegmentTicks:  *segmentTicks,
		PoolPages:     *poolPages,
		IngestHorizon: *ingestHorizon,
		CompactEvents: *compactEvents,
		Seed:          *seed,
	}

	var eng streach.Engine
	if *liveStr != "" {
		live, err := streach.NewLiveEngine(*liveStr, ds.NumObjects(), ds.Env(), ds.ContactDist(), opts)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		positions := make([]streach.Point, ds.NumObjects())
		for tk := 0; tk < ds.NumTicks(); tk++ {
			for o := range positions {
				positions[o] = ds.Position(streach.ObjectID(o), streach.Tick(tk))
			}
			if err := live.AddInstant(positions); err != nil {
				log.Fatalf("preload tick %d: %v", tk, err)
			}
		}
		log.Printf("preloaded %d feed instants in %v (%d sealed segments)",
			ds.NumTicks(), time.Since(start).Round(time.Millisecond), live.NumSealedSegments())
		eng = live
	} else {
		start := time.Now()
		e, err := streach.Open(*backend, ds, opts)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("indexed %s with %s in %v (%d index bytes)",
			ds.Name(), *backend, time.Since(start).Round(time.Millisecond), e.IndexBytes())
		eng = e
	}

	srv := serve.New(eng, serve.Config{
		Dataset:      ds.Name(),
		CacheEntries: *cacheEntries,
		MaxInFlight:  *maxInFlight,
		MaxQueue:     *maxQueue,
		ClientQPS:    *clientQPS,
		ClientBurst:  *clientBurst,
		QueryTimeout: *queryTimeout,
	})
	srv.SetEnv(ds.Env())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %s (%d objects × %d ticks) on http://%s", eng.Name(),
		ds.NumObjects(), ds.NumTicks(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := srv.Serve(ctx, ln, *grace); err != nil {
		log.Print(err)
		os.Exit(1)
	}
	log.Print("drained, exiting")
}
