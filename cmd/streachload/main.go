// Streachload is the load generator for streachd: it discovers the served
// dataset's dimensions from /v1/stats, synthesizes a random point-query
// workload, and drives the daemon in a closed loop (-clients workers
// back-to-back) or an open loop (-qps target pacing with intended-start
// latency accounting, so coordinated omission does not hide queueing).
// With -ingest-qps it simultaneously streams synthetic feed instants into
// /v1/ingest, measuring query service while the engine ingests. The §7
// extension knobs (-min-duration, -prob, -prob-threshold) attach contact
// predicates and probabilistic semantics to the reachability traffic and
// stamp the emitted records accordingly.
//
// Latencies land in an HDR-style log-bucketed histogram (1µs resolution
// floor, ~5% bucket growth to 60s) from which p50/p95/p99 are read.
// Results are emitted as a streachload/v1 report (report.go), one record
// per swept client count:
//
//	streachload -addr 127.0.0.1:8317 -sweep 1,8,64 -duration 5s -json serving.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8317", "streachd address (host:port)")
		clients    = flag.Int("clients", 8, "closed-loop worker count")
		sweep      = flag.String("sweep", "", "comma-separated client counts to sweep (overrides -clients)")
		qps        = flag.Float64("qps", 0, "open-loop target query rate (0: closed loop)")
		duration   = flag.Duration("duration", 10*time.Second, "measured duration per point")
		warmup     = flag.Duration("warmup", time.Second, "warmup before measurement (not recorded)")
		window     = flag.Int("window", 250, "query interval length in ticks")
		minDur     = flag.Int("min-duration", 0, "contact-duration floor (ticks) attached to reachability queries (0: unfiltered)")
		prob       = flag.Float64("prob", 0, "per-contact transmission probability attached to reachability queries (0: deterministic)")
		probThresh = flag.Float64("prob-threshold", 0, "reachability threshold τ attached to probabilistic queries (requires -prob)")
		noCache    = flag.Bool("no-cache", false, "bypass the server's result cache")
		ingestQPS  = flag.Float64("ingest-qps", 0, "feed instants per second to POST to /v1/ingest while measuring")
		lateFrac   = flag.Float64("late-frac", 0, "fraction of ingest posts sent as v2 out-of-order contact events at a past tick (a quarter of those adds are later retracted)")
		seed       = flag.Int64("seed", 1, "workload seed")
		jsonPath   = flag.String("json", "", "write a streachload/v1 report here")
		timeoutStr = flag.Duration("timeout", 30*time.Second, "per-request client timeout")
	)
	flag.Parse()

	log.SetPrefix("streachload: ")
	log.SetFlags(0)

	base := "http://" + *addr
	client := &http.Client{Timeout: *timeoutStr}

	st, err := fetchStats(client, base)
	if err != nil {
		log.Fatalf("GET /v1/stats: %v (is streachd running on %s?)", err, *addr)
	}
	log.Printf("target: %s serving %s via %s — %d objects × %d ticks, live=%v",
		base, st.Dataset, st.Backend, st.Engine.NumObjects, st.Engine.NumTicks, st.Live)

	// The strategy label reads the direction off the served backend's name,
	// so a sweep of bidir:* against forward backends only has to change
	// -addr (or the daemon's -backend).
	strat := "forward"
	if strings.Contains(st.Backend, "bidir:") {
		strat = "bidir"
	}

	// τ is meaningless without a per-contact probability (the server 400s the
	// combination), so fill in a conventional default rather than fail late.
	if *probThresh > 0 && *prob == 0 {
		log.Printf("-prob-threshold %v without -prob: defaulting -prob to 0.9", *probThresh)
		*prob = 0.9
	}

	counts := []int{*clients}
	if *sweep != "" {
		counts = counts[:0]
		for _, part := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				log.Fatalf("bad -sweep entry %q", part)
			}
			counts = append(counts, n)
		}
	}

	var records []record
	for _, n := range counts {
		rec := runPoint(client, base, st, pointConfig{
			clients:     n,
			qps:         *qps,
			duration:    *duration,
			warmup:      *warmup,
			window:      *window,
			minDuration: *minDur,
			prob:        *prob,
			probThresh:  *probThresh,
			noCache:     *noCache,
			ingestQPS:   *ingestQPS,
			lateFrac:    *lateFrac,
			strategy:    strat,
			seed:        *seed,
		})
		records = append(records, rec)
		log.Printf("clients=%d: %.0f q/s, p50=%.0fµs p95=%.0fµs p99=%.0fµs (%d queries, %d shed, %d errors)",
			n, rec.QueriesPerSec, rec.P50LatencyUS, rec.P95LatencyUS, rec.P99LatencyUS,
			rec.Queries, shedCount.Load(), errCount.Load())
	}

	// Speedup column relative to the smallest swept client count.
	if base := records[0].QueriesPerSec; base > 0 {
		for i := range records {
			records[i].SpeedupVs1Worker = records[i].QueriesPerSec / base
		}
	}

	if *jsonPath != "" {
		if err := writeReport(*jsonPath, records); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *jsonPath)
	}
	if errCount.Load() > 0 {
		os.Exit(1)
	}
}

// errCount is transport failures and unexpected statuses; shedCount is
// intentional admission rejections (429 quota, 503 overload), which are
// the server working as designed and do not fail the run.
var (
	errCount  atomic.Int64
	shedCount atomic.Int64
)

type pointConfig struct {
	clients     int
	qps         float64
	duration    time.Duration
	warmup      time.Duration
	window      int
	minDuration int
	prob        float64
	probThresh  float64
	noCache     bool
	ingestQPS   float64
	lateFrac    float64
	strategy    string
	seed        int64
}

// runPoint measures one client-count point: warmup, then cfg.duration of
// recorded traffic, with the optional ingest stream running throughout.
func runPoint(client *http.Client, base string, st *statsDoc, cfg pointConfig) record {
	// Snapshot the server's expanded-contacts histograms so this point's
	// per-query expansion cost can be read as a delta (earlier sweep points
	// and the warmup of other tools already moved the counters).
	initial, err := fetchStats(client, base)
	if err != nil {
		initial = st
	}
	stopIngest := make(chan struct{})
	ingestDone := make(chan ingestReport, 1)
	if cfg.ingestQPS > 0 {
		go func() { ingestDone <- runIngest(client, base, st, cfg.ingestQPS, cfg.lateFrac, cfg.seed, stopIngest) }()
	}

	hist := newHDRHistogram()
	var queries atomic.Int64
	var recording atomic.Bool
	stopWork := make(chan struct{})

	// Each worker owns a seeded RNG so sweeps are reproducible.
	work := func(workerID int, paced <-chan time.Time) {
		rng := rand.New(rand.NewSource(cfg.seed + int64(workerID)*7919))
		for {
			var intended time.Time
			if paced != nil {
				t, ok := <-paced
				if !ok {
					return
				}
				intended = t
			} else {
				select {
				case <-stopWork:
					return
				default:
				}
				intended = time.Now()
			}
			code := postQuery(client, base+"/v1/reachable", randomQuery(rng, st, cfg))
			lat := time.Since(intended)
			if recording.Load() {
				switch code {
				case 200:
					queries.Add(1)
					hist.observe(lat)
				case 429, 503:
					shedCount.Add(1)
				default:
					errCount.Add(1)
				}
			}
		}
	}

	var paced chan time.Time
	var pacerStop chan struct{}
	if cfg.qps > 0 {
		// Open loop: the pacer stamps intended start times; a queue of
		// slack absorbs scheduler jitter without losing the intent times.
		paced = make(chan time.Time, 4*cfg.clients)
		pacerStop = make(chan struct{})
		go func() {
			interval := time.Duration(float64(time.Second) / cfg.qps)
			tk := time.NewTicker(interval)
			defer tk.Stop()
			for {
				select {
				case t := <-tk.C:
					select {
					case paced <- t:
					default: // workers saturated: drop the tick, the gap shows in throughput
					}
				case <-pacerStop:
					close(paced)
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			work(id, paced)
		}(w)
	}

	time.Sleep(cfg.warmup)
	recording.Store(true)
	start := time.Now()
	time.Sleep(cfg.duration)
	recording.Store(false)
	elapsed := time.Since(start)

	if pacerStop != nil {
		close(pacerStop)
	}
	close(stopWork)
	wg.Wait()

	var ing ingestReport
	close(stopIngest)
	if cfg.ingestQPS > 0 {
		ing = <-ingestDone
	}

	final, err := fetchStats(client, base)
	if err != nil {
		final = st
	}

	n := queries.Load()
	rec := record{
		Experiment:    "serving",
		Backend:       st.Backend,
		Dataset:       st.Dataset,
		Workers:       cfg.clients,
		Queries:       int(n),
		QueriesPerSec: float64(n) / elapsed.Seconds(),
		P50LatencyUS:  hist.quantileUS(0.50),
		P95LatencyUS:  hist.quantileUS(0.95),
		P99LatencyUS:  hist.quantileUS(0.99),
		CacheHitRate:  final.Cache.HitRate,
		Strategy:      cfg.strategy,
	}
	if cfg.minDuration > 0 {
		rec.Filtered = true
		rec.MinDuration = cfg.minDuration
	}
	if cfg.prob > 0 {
		rec.Prob = cfg.prob
		rec.ProbThreshold = cfg.probThresh
	}
	if final.Engine.Shards > 0 {
		rec.Shards = final.Engine.Shards
		rec.Partitioner = final.Engine.Partitioner
		rec.CrossShardRatio = final.Engine.CrossShardRatio
	}
	// Mean contact expansions per fresh evaluation across the query
	// endpoints this point exercised (cache hits expand nothing and are not
	// in the server's histogram, so the mean is undiluted).
	var dCount, dTotal int64
	for name, ex := range final.ExpandedContacts {
		prev := initial.ExpandedContacts[name]
		dCount += ex.Count - prev.Count
		dTotal += ex.Total - prev.Total
	}
	if dCount > 0 {
		rec.ExpandedPerQuery = float64(dTotal) / float64(dCount)
	}
	if ing.instants > 0 {
		rec.AppendsPerSec = float64(ing.instants) / ing.elapsed.Seconds()
		rec.SealedSegments = final.Engine.SealedSegments
	}
	if ing.late > 0 {
		rec.LateRate = cfg.lateFrac
		rec.LateEvents = int64(ing.late)
	}
	return rec
}

// randomQuery synthesizes one /v1/reachable body within the served time
// domain.
func randomQuery(rng *rand.Rand, st *statsDoc, cfg pointConfig) []byte {
	numObjects, numTicks := st.Engine.NumObjects, st.Engine.NumTicks
	src := rng.Intn(numObjects)
	dst := rng.Intn(numObjects)
	w := cfg.window
	if w >= numTicks {
		w = numTicks - 1
	}
	lo := 0
	if numTicks-w > 1 {
		lo = rng.Intn(numTicks - w)
	}
	req := map[string]any{"src": src, "dst": dst, "from": lo, "to": lo + w}
	if cfg.noCache {
		req["no_cache"] = true
	}
	if cfg.minDuration > 0 {
		req["min_duration"] = cfg.minDuration
	}
	if cfg.prob > 0 {
		req["prob"] = cfg.prob
	}
	if cfg.probThresh > 0 {
		req["prob_threshold"] = cfg.probThresh
	}
	body, _ := json.Marshal(req)
	return body
}

func postQuery(client *http.Client, url string, body []byte) int {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		logSampledError("POST %s: %v", url, err)
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 && resp.StatusCode != 429 && resp.StatusCode != 503 {
		logSampledError("POST %s: status %d", url, resp.StatusCode)
	}
	return resp.StatusCode
}

// logSampledError reports the first few failures verbatim so a failing run
// is diagnosable without drowning the sweep output.
var loggedErrors atomic.Int64

func logSampledError(format string, args ...any) {
	if loggedErrors.Add(1) <= 5 {
		log.Printf(format, args...)
	}
}

type ingestReport struct {
	instants int
	late     int
	elapsed  time.Duration
}

// runIngest streams synthetic feed ticks at rate posts/sec until stop
// closes. Positions are uniform in the served environment, so the contact
// density stays plausible for the dataset. With lateFrac > 0, that
// fraction of posts instead carries a v2 contact event at a random past
// tick — exercising the delta-log path under live query load — and about
// a quarter of those late adds are retracted again a few posts later.
func runIngest(client *http.Client, base string, st *statsDoc, rate, lateFrac float64, seed int64, stop <-chan struct{}) ingestReport {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	w, h := st.EnvWidth, st.EnvHeight
	if w <= 0 {
		w = 1000
	}
	if h <= 0 {
		h = 1000
	}
	interval := time.Duration(float64(time.Second) / rate)
	tk := time.NewTicker(interval)
	defer tk.Stop()
	start := time.Now()
	var sent, late int
	// Late adds remembered for retraction, deduplicated so no contact
	// instant is ever retracted twice (the server 409s a blind retract).
	type lateAdd struct{ tick, a, b int }
	var toRetract []lateAdd
	remembered := make(map[lateAdd]bool)
	report := func() ingestReport {
		return ingestReport{instants: sent, late: late, elapsed: time.Since(start)}
	}
	for {
		select {
		case <-stop:
			return report()
		case <-tk.C:
		}
		var body []byte
		isLate := lateFrac > 0 && rng.Float64() < lateFrac && st.Engine.NumTicks+sent > 1
		if isLate {
			ev := map[string]any{}
			if len(toRetract) > 0 && rng.Float64() < 0.25 {
				r := toRetract[0]
				toRetract = toRetract[1:]
				ev = map[string]any{"tick": r.tick, "a": r.a, "b": r.b, "retract": true}
			} else {
				a := rng.Intn(st.Engine.NumObjects)
				b := rng.Intn(st.Engine.NumObjects)
				for b == a {
					b = rng.Intn(st.Engine.NumObjects)
				}
				add := lateAdd{tick: rng.Intn(st.Engine.NumTicks + sent), a: a, b: b}
				ev = map[string]any{"tick": add.tick, "a": add.a, "b": add.b}
				if !remembered[add] {
					remembered[add] = true
					toRetract = append(toRetract, add)
				}
			}
			body, _ = json.Marshal(map[string]any{"events": []any{ev}})
		} else {
			instant := make([][2]float64, st.Engine.NumObjects)
			for o := range instant {
				instant[o] = [2]float64{rng.Float64() * w, rng.Float64() * h}
			}
			body, _ = json.Marshal(map[string]any{"instants": [][][2]float64{instant}})
		}
		resp, err := client.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			errCount.Add(1)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		code := resp.StatusCode
		resp.Body.Close()
		switch code {
		case 200:
			if isLate {
				late++
			} else {
				sent++
			}
		case 429, 503:
			// Admission shed the append; the feed instant is simply lost
			// this round, which is what backpressure on a feed means.
			shedCount.Add(1)
		case 501:
			log.Print("server is frozen (501 on /v1/ingest); stopping the ingest stream")
			return report()
		default:
			logSampledError("POST /v1/ingest: status %d", code)
			errCount.Add(1)
		}
	}
}

// --- HDR-style histogram ---

// hdrHistogram is a log-bucketed latency histogram: bucket i covers
// [floor·g^i, floor·g^i+1) with g ≈ 1.05, from 1µs to 60s — constant
// relative error like HDR, with a fixed footprint.
type hdrHistogram struct {
	buckets []atomic.Int64
	count   atomic.Int64
}

const (
	hdrFloorUS = 1.0
	hdrGrowth  = 1.05
	hdrCeilUS  = 60e6
)

var hdrBucketCount = int(math.Ceil(math.Log(hdrCeilUS/hdrFloorUS)/math.Log(hdrGrowth))) + 1

func newHDRHistogram() *hdrHistogram {
	return &hdrHistogram{buckets: make([]atomic.Int64, hdrBucketCount+1)}
}

func (h *hdrHistogram) observe(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	i := 0
	if us > hdrFloorUS {
		i = int(math.Log(us/hdrFloorUS) / math.Log(hdrGrowth))
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
}

// quantileUS reads the q-quantile in microseconds (upper bucket bound).
func (h *hdrHistogram) quantileUS(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum > rank {
			return hdrFloorUS * math.Pow(hdrGrowth, float64(i+1))
		}
	}
	return hdrCeilUS
}

// --- /v1/stats client ---

// statsDoc mirrors the fields of streachd's /v1/stats the generator needs.
type statsDoc struct {
	Backend   string  `json:"backend"`
	Dataset   string  `json:"dataset"`
	Live      bool    `json:"live"`
	EnvWidth  float64 `json:"env_width"`
	EnvHeight float64 `json:"env_height"`
	Engine    struct {
		NumObjects      int     `json:"num_objects"`
		NumTicks        int     `json:"num_ticks"`
		SealedSegments  int     `json:"sealed_segments"`
		Shards          int     `json:"shards"`
		Partitioner     string  `json:"partitioner"`
		CrossShardRatio float64 `json:"cross_shard_ratio"`
	} `json:"engine"`
	Cache struct {
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`
	ExpandedContacts map[string]expandedDoc `json:"expanded_contacts"`
}

// expandedDoc mirrors one endpoint's expanded-contacts summary (the bucket
// list is not needed here).
type expandedDoc struct {
	Count int64 `json:"count"`
	Total int64 `json:"total"`
}

func fetchStats(client *http.Client, base string) (*statsDoc, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var st statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	if st.Engine.NumObjects <= 0 || st.Engine.NumTicks <= 0 {
		return nil, fmt.Errorf("stats report %d objects × %d ticks", st.Engine.NumObjects, st.Engine.NumTicks)
	}
	return &st, nil
}
