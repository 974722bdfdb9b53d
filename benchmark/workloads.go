package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// params sizes the inputs. fullScale is the benchmark; tinyScale drives the
// same code in the smoke test.
type params struct {
	d1Objects, d1Ticks int // D1: random waypoint
	pointPool          int // point queries generated from the seed, with oracle answers
	minLen, maxLen     int // point-query interval length in ticks, uniform

	clObjects, clTicks, clClusters int // the clustered dataset of set-shard
	setPool, setLen                int // set queries and their interval length
	shardPoolPages                 int // per-shard buffer pool, larger than any shard's index

	ladderPoint, ladderGrid, ladderSet, ladderHash int // fixed-list lengths

	hotCached int // serve-cached: size of the hot set

	liveTicks, livePreload int           // serve-live: feed length, instants loaded during set-up
	liveSpan               int           // query intervals end within this many ticks of the frontier
	liveHot, liveFixed     int           // hot templates; fixed queries checked after quiescing
	hotEvery               int           // every hotEvery-th query is a hot one
	liveQPS                int           // open-loop query rate
	ingestEvery            time.Duration // one position instant per this period
	lateEvery, lateBatch   int           // every lateEvery-th post adds lateBatch late events
	retractAfter           int           // posts until a quarter of a late batch is retracted

	setups int           // set-ups per run; setup_s is their median
	warmup time.Duration // before every measured window
}

var fullScale = params{
	d1Objects: 800, d1Ticks: 2000, pointPool: 1024, minLen: 60, maxLen: 240,
	clObjects: 768, clTicks: 1024, clClusters: 24, setPool: 256, setLen: 340, shardPoolPages: 8192,
	ladderPoint: 512, ladderGrid: 256, ladderSet: 128, ladderHash: 32,
	hotCached: 1024,
	liveTicks: 1300, livePreload: 1000, liveSpan: 512, liveHot: 16, liveFixed: 256, hotEvery: 5,
	liveQPS: 100, ingestEvery: 50 * time.Millisecond, lateEvery: 100, lateBatch: 32, retractAfter: 100,
	setups: 3, warmup: 2 * time.Second,
}

var tinyScale = params{
	d1Objects: 96, d1Ticks: 420, pointPool: 48, minLen: 30, maxLen: 90,
	clObjects: 96, clTicks: 300, clClusters: 6, setPool: 16, setLen: 120, shardPoolPages: 2048,
	ladderPoint: 24, ladderGrid: 16, ladderSet: 8, ladderHash: 4,
	hotCached: 32,
	liveTicks: 460, livePreload: 300, liveSpan: 200, liveHot: 4, liveFixed: 16, hotEvery: 5,
	liveQPS: 200, ingestEvery: 10 * time.Millisecond, lateEvery: 5, lateBatch: 8, retractAfter: 10,
	setups: 1, warmup: 50 * time.Millisecond,
}

// The datasets are the benchmark's fixed corpus: their generator seeds do
// not follow -seed, so that two runs differ only in the queries, the
// request schedule and the late events, all of which do.
const (
	d1Seed        = 20120827
	clusteredSeed = 20120828
	liveSeed      = 20120829
)

// workloadDef is one workload: its name and reason (mirrored in
// BENCHMARK.json), which percentile its tail metric reports, its latency
// limit, and the function that runs it.
type workloadDef struct {
	name  string
	why   string
	tailQ float64
	limit time.Duration
	run   func(r *run) error
}

var workloads = []workloadDef{
	{
		name:  "graph-point",
		why:   "the paper's headline: point queries on disk ReachGraph, index 80x its 64-page pool, so reachgraph traversal and the pagefile miss path do the work",
		tailQ: 0.95, limit: 10 * time.Millisecond,
		run: func(r *run) error { return r.runPoint("reachgraph", false) },
	},
	{
		name:  "grid-point",
		why:   "the paper's other index on the same queries: reachgrid sweep + pagefile, reachgraph idle, so a change to one index predicts no movement here",
		tailQ: 0.95, limit: 50 * time.Millisecond,
		run: func(r *run) error { return r.runPoint("reachgrid", true) },
	},
	{
		name:  "set-shard",
		why:   "reachable-set bursts via shard:4:spatial on clustered mobility, index pool-resident: planner and decode cost show, the miss path does not",
		tailQ: 0.95, limit: 100 * time.Millisecond,
		run: (*run).runSetShard,
	},
	{
		name:  "serve-cached",
		why:   "HTTP on loopback over reachgraph-mem, 90% cache hits: serve and socket do the work and the engine almost none, so per-request overhead is in the open",
		tailQ: 0.99, limit: time.Millisecond,
		run: (*run).runServeCached,
	},
	{
		name:  "serve-live",
		why:   "writes beside reads: open-loop queries at a fixed rate on a live engine fed instants, late contacts and retractions; dirty slabs set the median, seals the misses",
		tailQ: 0.90, limit: 50 * time.Millisecond,
		run: (*run).runServeLive,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// run is one workload being measured, traced or untraced.
type run struct {
	p       params
	def     *workloadDef
	seed    int64
	seconds float64
	trace   bool
	ctx     context.Context
	rec     *recorder // nil unless trace
	res     *workloadResult
}

// runWorkload measures one workload once. With trace off it fills the
// end-to-end metrics; with trace on it replays the fixed list down the
// layer ladder, runs short traced windows and fills the per-layer metrics.
func runWorkload(ctx context.Context, def *workloadDef, p params, seed int64, seconds float64, trace bool) (*workloadResult, error) {
	r := &run{p: p, def: def, seed: seed, seconds: seconds, trace: trace, ctx: ctx, res: newResult(def.name)}
	if trace {
		r.rec = newRecorder(def.name, 1<<14)
	}
	if err := def.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	if trace {
		r.res.spans = r.rec.spans
		r.res.PerLayer.set(perLayer, "trace.spans", float64(len(r.res.spans)))
		r.res.PerLayer.set(perLayer, "loadgen.failed_share", r.res.failedShare())
		r.res.PerLayer.complete(perLayer)
		r.res.EndToEnd = nil
	} else {
		r.res.PerLayer = nil
	}
	return r.res, nil
}

func (r *run) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1_000_003 + salt))
}

func (r *run) window() time.Duration { return time.Duration(r.seconds * float64(time.Second)) }

func (r *run) layer(name string, v float64) { r.res.PerLayer.set(perLayer, name, v) }

// --- inputs ---

// stratified returns n values spread over [lo, hi]: the range is cut into n
// equal strata, one value is drawn from each, and the order is shuffled.
// A query's cost follows its interval's length and position, so pools
// drawn this way differ less from seed to seed than independent draws,
// while still being different queries for every seed.
func stratified(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	span := hi - lo + 1
	for i := range out {
		a, b := lo+i*span/n, lo+(i+1)*span/n
		out[i] = a + rng.Intn(max(b-a, 1))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func pairOf(rng *rand.Rand, objects int) (a, b int) {
	a = rng.Intn(objects)
	b = rng.Intn(objects - 1)
	if b >= a {
		b++
	}
	return a, b
}

// genPointPool draws n point queries: endpoints uniform, interval lengths
// stratified over [minLen, maxLen] and positions over the time domain.
func genPointPool(rng *rand.Rand, objects, ticks, n, minLen, maxLen int) []pointQuery {
	lengths := stratified(rng, n, minLen, maxLen)
	places := stratified(rng, n, 0, 1<<20-1)
	qs := make([]pointQuery, n)
	for i := range qs {
		lo := places[i] * (ticks - lengths[i] + 1) >> 20
		src, dst := pairOf(rng, objects)
		qs[i] = pointQuery{Src: src, Dst: dst, Lo: lo, Hi: lo + lengths[i] - 1}
	}
	return qs
}

// inParallel runs fn(i) for i in [0, n) on two goroutines: the oracle
// tables are the slowest part of input generation.
func inParallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

func oraclePoints(o oracle, qs []pointQuery) []bool {
	want := make([]bool, len(qs))
	inParallel(len(qs), func(i int) { want[i] = o.reachable(qs[i]) })
	return want
}

func positiveShare(want []bool) float64 {
	n := 0
	for _, w := range want {
		n += boolInt(w)
	}
	return float64(n) / float64(max(len(want), 1))
}

// pointInputs is D1 with its point pool and the oracle's answers.
type pointInputs struct {
	d    *dataset
	net  *network // extracted once for the oracle; set-up extracts again
	pool []pointQuery
	want []bool
}

func (r *run) pointInputs() *pointInputs {
	in := &pointInputs{d: genRandomWaypoint("D1", r.p.d1Objects, r.p.d1Ticks, d1Seed)}
	in.net = in.d.extractContacts()
	in.pool = genPointPool(r.rng(1), r.p.d1Objects, r.p.d1Ticks, r.p.pointPool, r.p.minLen, r.p.maxLen)
	in.want = oraclePoints(in.net.oracle(), in.pool)
	r.res.Info["positive_share"] = positiveShare(in.want)
	r.res.Info["contacts"] = float64(in.net.contacts())
	return in
}

// --- set-up, windows and the metrics they feed ---

// instance is a system set up and ready to answer. op runs the workload's
// query operation number seq of a client, recording a span when rec is set.
type instance struct {
	op    func(client, seq int, rec *recorder) opFlags
	close func()
	sys   any // the workload's own handle on what it set up
}

// liveHeapMB is the heap still reachable after two collections. It reads
// HeapAlloc, not HeapInuse: the spans in use also count the free slots
// between live objects, which depend on what the process allocated before
// and differed by 6 % between two sets of one full run.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// timedSetups sets the system up r.p.setups times, keeps the last
// instance, and reports the median set-up time and the heap the last
// set-up left in use.
func (r *run) timedSetups(setup func() (*instance, error)) (*instance, error) {
	var times []float64
	var inst *instance
	var heap float64
	for i := 0; i < r.p.setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		before := liveHeapMB()
		t0 := time.Now()
		var err error
		if inst, err = setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		heap = liveHeapMB() - before
	}
	r.res.EndToEnd.set(endToEnd, "setup_s", median(times))
	r.res.EndToEnd.set(endToEnd, "heap_mb", heap)
	return inst, nil
}

func spreadOf(xs []float64) sliceSpread {
	q1, q2, q3 := quartiles(xs)
	return sliceSpread{Q1: q1, Median: q2, Q3: q3}
}

// endToEndFrom turns a measured window into the end-to-end metrics.
func (r *run) endToEndFrom(w *windowStats) {
	qps, p50 := w.sliceQPS(), w.sliceP50()
	r.res.Slices["throughput_qps"] = spreadOf(qps)
	r.res.Slices["query_p50_us"] = spreadOf(p50)
	e := r.res.EndToEnd
	if span := w.lastDone.Sub(w.firstDone).Seconds(); span > 0 { // open loop
		e.set(endToEnd, "throughput_qps", float64(w.all.n-1)/span)
	} else {
		e.set(endToEnd, "throughput_qps", median(qps))
	}
	e.set(endToEnd, "query_p50_us", median(p50))
	e.set(endToEnd, "query_tail_us", w.all.quantileUS(r.def.tailQ))
	done := float64(w.all.n)
	e.set(endToEnd, "within_limit_share", w.all.shareWithin(r.def.limit)*done/max(done+float64(w.windowFailed), 1))
	e.set(endToEnd, "cpu_us_per_query", w.cpuSeconds*1e6/max(done, 1))
	r.res.Info["samples"] = done
	r.res.Info["tail_percentile"] = r.def.tailQ * 100
	r.res.Info["limit_ms"] = float64(r.def.limit) / 1e6
	r.res.count(w.attempted, w.failed)
}

// closedWindow settles the heap and runs one closed-loop window.
func (r *run) closedWindow(inst *instance, clients int, warmup, length time.Duration, rec *recorder) *windowStats {
	runtime.GC()
	w := runClosedLoop(clients, warmup, length, func(c, seq int) opFlags { return inst.op(c, seq, rec) })
	r.res.count(w.attempted, w.failed)
	return w
}

// measureClosed is the untraced run of a closed-loop workload: timed
// set-ups, then two clients through the warm-up and the window.
func (r *run) measureClosed(setup func() (*instance, error)) error {
	inst, err := r.timedSetups(setup)
	if err != nil {
		return err
	}
	defer inst.close()
	runtime.GC()
	w := runClosedLoop(2, r.p.warmup, r.window(), func(c, seq int) opFlags { return inst.op(c, seq, nil) })
	r.endToEndFrom(w)
	return nil
}

// tracedWindows is the windowed part of a closed-loop workload's traced
// run: one client, then two, then two with spans recorded. The first two
// give single-client throughput and scaling; the last two differ only in
// tracing, so their medians give its overhead. It returns the untraced
// two-client window.
func (r *run) tracedWindows(inst *instance) *windowStats {
	warm := r.p.warmup / 4
	part := func(share float64) time.Duration { return time.Duration(share * float64(r.window())) }
	one := r.closedWindow(inst, 1, warm, part(0.4), nil)
	two := r.closedWindow(inst, 2, warm, part(0.4), nil)
	traced := r.closedWindow(inst, 2, warm, part(0.2), r.rec)
	qps1, qps2 := median(one.sliceQPS()), median(two.sliceQPS())
	r.layer("engine.qps_1client", qps1)
	if qps1 > 0 {
		r.layer("engine.scaling_2c", qps2/qps1)
	}
	r.layer("loadgen.achieved_rps", qps2)
	r.layer("trace.overhead_pct", overheadPct(two, traced))
	return two
}

// overheadPct is by how much tracing raised the median latency between two
// windows that differ in nothing else. It uses the whole windows, not their
// slices: the traced window is short, and on the slower workloads a slice
// of it holds a few dozen samples.
func overheadPct(untraced, traced *windowStats) float64 {
	base := untraced.all.quantileUS(0.5)
	if base == 0 {
		return 0
	}
	return 100 * (traced.all.quantileUS(0.5) - base) / base
}

// --- the fixed-list pass ---

// passResult is one ladder rung's pass over the fixed list.
type passResult struct {
	durations []time.Duration
	sum       counts
}

func (p *passResult) p50() float64 { return quantileOfUS(p.durations, 0.50) }
func (p *passResult) p95() float64 { return quantileOfUS(p.durations, 0.95) }
func (p *passResult) per(total int64) float64 {
	return float64(total) / float64(max(len(p.durations), 1))
}
func (p *passResult) normIO() float64 {
	return p.per(p.sum.RandomReads) + p.per(p.sum.SeqReads)/20
}

func (p *passResult) add(d time.Duration, c counts) {
	p.durations = append(p.durations, d)
	p.sum.Expanded += c.Expanded
	p.sum.RandomReads += c.RandomReads
	p.sum.SeqReads += c.SeqReads
	p.sum.BufferHits += c.BufferHits
	p.sum.Answer += c.Answer
}

// pointPass sends the fixed list through one rung, one query at a time,
// checking every answer; each call is one span.
func (r *run) pointPass(rung, layer string, list []pointQuery, want []bool, fn pointFn) passResult {
	pr := passResult{durations: make([]time.Duration, 0, len(list))}
	var failed int64
	for i, q := range list {
		id := r.rec.begin(-1, i, layer, rung)
		t0 := time.Now()
		ok, c, err := fn(r.ctx, q)
		d := time.Since(t0)
		r.rec.end(id, c)
		if err != nil || ok != want[i] {
			failed++
		}
		pr.add(d, c)
	}
	r.res.count(int64(len(list)), failed)
	return pr
}

func (r *run) setPass(rung, layer string, list []setQuery, want []objSet, fn setFn) passResult {
	pr := passResult{durations: make([]time.Duration, 0, len(list))}
	var failed int64
	for i, q := range list {
		id := r.rec.begin(-1, i, layer, rung)
		t0 := time.Now()
		got, c, err := fn(r.ctx, q)
		d := time.Since(t0)
		r.rec.end(id, c)
		if err != nil || !sameSet(got, want[i]) {
			failed++
		}
		pr.add(d, c)
	}
	r.res.count(int64(len(list)), failed)
	return pr
}

// pagefileMetrics reports the exact I/O counts of the workload's own
// engine over its fixed-list pass: per-query reads from the spans, pool
// behaviour from the engine's statistics before and after.
func (r *run) pagefileMetrics(pr *passResult, before, after engineStats, contacts int) {
	r.layer("pagefile.norm_io_per_query", pr.normIO())
	r.layer("pagefile.random_reads_per_query", pr.per(pr.sum.RandomReads))
	r.layer("pagefile.seq_reads_per_query", pr.per(pr.sum.SeqReads))
	r.layer("pagefile.buffer_hits_per_query", pr.per(pr.sum.BufferHits))
	hits, misses := after.PoolHits-before.PoolHits, after.PoolMisses-before.PoolMisses
	if hits+misses > 0 {
		r.layer("pagefile.pool_hit_rate", float64(hits)/float64(hits+misses))
	}
	r.layer("pagefile.evictions_per_query", pr.per(after.PoolEvictions-before.PoolEvictions))
	r.layer("pagefile.index_pages", float64(after.IndexBytes)/4096)
	r.layer("pagefile.index_bytes_per_contact", float64(after.IndexBytes)/float64(max(contacts, 1)))
}

// allocsOver runs fn and returns the heap allocations and bytes it made.
// Nothing else may be running.
func allocsOver(fn func()) (mallocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// --- graph-point and grid-point ---

// pointOp is the closed-loop operation of the two in-process point
// workloads: client c walks the pool from its own offset.
func pointOp(ctx context.Context, eng *engine, in *pointInputs) func(c, seq int, rec *recorder) opFlags {
	n := len(in.pool)
	return func(c, seq int, rec *recorder) opFlags {
		i := (c*n/2 + seq) % n
		id := rec.begin(-1, i, "engine", "window")
		ok, cnt, err := eng.reach(ctx, in.pool[i])
		rec.end(id, cnt)
		if err != nil || ok != in.want[i] {
			return 0
		}
		return opOK
	}
}

func (r *run) runPoint(backend string, fromTrajectories bool) error {
	in := r.pointInputs()
	open := func() (*engine, error) {
		if fromTrajectories {
			return openEngine(backend, in.d.source(), 0, 0)
		}
		return openEngine(backend, in.d.extractContacts().source(), 0, 0)
	}
	if !r.trace {
		return r.measureClosed(func() (*instance, error) {
			eng, err := open()
			if err != nil {
				return nil, err
			}
			return &instance{op: pointOp(r.ctx, eng, in), close: func() {}}, nil
		})
	}
	var eng *engine
	var err error
	if fromTrajectories {
		eng, err = r.gridLadder(in)
	} else {
		eng, err = r.graphLadder(in)
	}
	if err != nil {
		return err
	}
	r.layer("loadgen.positive_share", positiveShare(in.want))
	r.tracedWindows(&instance{op: pointOp(r.ctx, eng, in), close: func() {}})
	return nil
}

// graphLadder: reachgraph.Index.ReachStrategyCounted → Open("reachgraph")
// → segmented:reachgraph → bidir:reachgraph, each freshly built and cold.
func (r *run) graphLadder(in *pointInputs) (*engine, error) {
	list, want := in.pool[:r.p.ladderPoint], in.want[:r.p.ladderPoint]

	t0 := time.Now()
	net := in.d.extractContacts()
	r.layer("contact.extract_s", time.Since(t0).Seconds())
	r.layer("contact.count", float64(net.contacts()))

	raw, dnTime, buildTime, err := buildRawGraph(net)
	if err != nil {
		return nil, err
	}
	r.layer("dn.build_s", dnTime.Seconds())
	r.layer("reachgraph.build_s", buildTime.Seconds())
	rawPass := r.pointPass("reachgraph.Index", "reachgraph", list, want, raw)
	r.layer("reachgraph.point_p50_us", rawPass.p50())
	r.layer("reachgraph.point_p95_us", rawPass.p95())
	r.layer("reachgraph.expanded_per_query", rawPass.per(int64(rawPass.sum.Expanded)))
	raw = nil

	eng, err := openEngine("reachgraph", net.source(), 0, 0)
	if err != nil {
		return nil, err
	}
	before := eng.stats()
	var engPass passResult
	mallocs, bytes := allocsOver(func() {
		engPass = r.pointPass("Open(reachgraph)", "engine", list, want, eng.reach)
	})
	r.pagefileMetrics(&engPass, before, eng.stats(), net.contacts())
	r.layer("engine.self_p50_us", pairedDeltaUS(rawPass.durations, engPass.durations))
	r.layer("engine.allocs_per_query", mallocs/float64(len(list)))
	r.layer("engine.bytes_per_query", bytes/float64(len(list)))

	seg, err := openEngine("segmented:reachgraph", net.source(), 0, 0)
	if err != nil {
		return nil, err
	}
	segPass := r.pointPass("segmented:reachgraph", "segmented", list, want, seg.reach)
	r.layer("segmented.point_p50_us", segPass.p50())
	r.layer("segmented.delta_p50_us", pairedDeltaUS(engPass.durations, segPass.durations))
	r.layer("segmented.norm_io_per_query", segPass.normIO())
	r.layer("segmented.expanded_per_query", segPass.per(int64(segPass.sum.Expanded)))
	seg = nil

	bi, err := openEngine("bidir:reachgraph", net.source(), 0, 0)
	if err != nil {
		return nil, err
	}
	biPass := r.pointPass("bidir:reachgraph", "bidir", list, want, bi.reach)
	r.layer("bidir.point_p50_us", biPass.p50())
	r.layer("bidir.norm_io_per_query", biPass.normIO())
	r.layer("bidir.expanded_per_query", biPass.per(int64(biPass.sum.Expanded)))
	return eng, nil
}

// gridLadder: reachgrid.Index.ReachCounted → Open("reachgrid").
func (r *run) gridLadder(in *pointInputs) (*engine, error) {
	list, want := in.pool[:r.p.ladderGrid], in.want[:r.p.ladderGrid]

	raw, buildTime, err := buildRawGrid(in.d)
	if err != nil {
		return nil, err
	}
	r.layer("reachgrid.build_s", buildTime.Seconds())
	rawPass := r.pointPass("reachgrid.Index", "reachgrid", list, want, raw)
	r.layer("reachgrid.point_p50_us", rawPass.p50())
	r.layer("reachgrid.point_p95_us", rawPass.p95())
	r.layer("reachgrid.expanded_per_query", rawPass.per(int64(rawPass.sum.Expanded)))
	raw = nil

	eng, err := openEngine("reachgrid", in.d.source(), 0, 0)
	if err != nil {
		return nil, err
	}
	before := eng.stats()
	var engPass passResult
	mallocs, bytes := allocsOver(func() {
		engPass = r.pointPass("Open(reachgrid)", "engine", list, want, eng.reach)
	})
	r.pagefileMetrics(&engPass, before, eng.stats(), in.net.contacts())
	r.layer("engine.grid_self_p50_us", pairedDeltaUS(rawPass.durations, engPass.durations))
	r.layer("engine.allocs_per_query", mallocs/float64(len(list)))
	r.layer("engine.bytes_per_query", bytes/float64(len(list)))
	return eng, nil
}

// --- set-shard ---

type setInputs struct {
	d    *dataset
	net  *network
	pool []setQuery
	want []objSet
}

func (r *run) setInputs() *setInputs {
	in := &setInputs{d: genClustered("C1", r.p.clObjects, r.p.clTicks, r.p.clClusters, 0.002, clusteredSeed)}
	in.net = in.d.extractContacts()
	rng := r.rng(2)
	// Sources are stratified over the object ids (clusters are assigned
	// round-robin, so that covers the clusters evenly) and interval starts
	// over the time domain.
	sources := stratified(rng, r.p.setPool, 0, r.p.clObjects-1)
	starts := stratified(rng, r.p.setPool, 0, r.p.clTicks-r.p.setLen)
	in.pool = make([]setQuery, r.p.setPool)
	for i := range in.pool {
		in.pool[i] = setQuery{Src: sources[i], Lo: starts[i], Hi: starts[i] + r.p.setLen - 1}
	}
	in.want = make([]objSet, len(in.pool))
	o := in.net.oracle()
	inParallel(len(in.pool), func(i int) { in.want[i] = o.reachableSet(in.pool[i]) })
	total := 0
	for _, w := range in.want {
		total += len(w)
	}
	r.res.Info["answer_objects"] = float64(total) / float64(len(in.want))
	r.res.Info["contacts"] = float64(in.net.contacts())
	return in
}

func setOp(ctx context.Context, eng *engine, in *setInputs) func(c, seq int, rec *recorder) opFlags {
	n := len(in.pool)
	return func(c, seq int, rec *recorder) opFlags {
		i := (c*n/2 + seq) % n
		id := rec.begin(-1, i, "shard", "window")
		got, cnt, err := eng.reachSet(ctx, in.pool[i])
		rec.end(id, cnt)
		if err != nil || !sameSet(got, in.want[i]) {
			return 0
		}
		return opOK
	}
}

const setShardBackend = "shard:4:spatial:reachgraph"

func (r *run) runSetShard() error {
	in := r.setInputs()
	if !r.trace {
		return r.measureClosed(func() (*instance, error) {
			// A fresh facade, so that set-up pays for contact extraction.
			eng, err := openEngine(setShardBackend, in.d.source(), r.p.shardPoolPages, 0)
			if err != nil {
				return nil, err
			}
			return &instance{op: setOp(r.ctx, eng, in), close: func() {}}, nil
		})
	}

	// Ladder: segmented:reachgraph → shard:4:spatial → shard:4 (hash cut).
	list, want := in.pool[:r.p.ladderSet], in.want[:r.p.ladderSet]
	t0 := time.Now()
	net := in.d.extractContacts()
	r.layer("contact.extract_s", time.Since(t0).Seconds())
	r.layer("contact.count", float64(net.contacts()))

	seg, err := openEngine("segmented:reachgraph", net.source(), r.p.shardPoolPages, 0)
	if err != nil {
		return err
	}
	segPass := r.setPass("segmented:reachgraph", "segmented", list, want, seg.reachSet)
	segBytes := seg.stats().IndexBytes
	r.layer("segmented.set_p50_us", segPass.p50())
	seg = nil

	// The warm facade already holds its contacts, so shard.build_s is
	// partitioning plus the four index builds.
	warm := in.d.warmSource()
	t0 = time.Now()
	eng, err := openEngine(setShardBackend, warm, r.p.shardPoolPages, 0)
	if err != nil {
		return err
	}
	r.layer("shard.build_s", time.Since(t0).Seconds())
	before := eng.stats()
	shardPass := r.setPass(setShardBackend, "shard", list, want, eng.reachSet)
	after := eng.stats()
	r.pagefileMetrics(&shardPass, before, after, net.contacts())
	r.layer("shard.set_p50_us", shardPass.p50())
	r.layer("shard.delta_p50_us", pairedDeltaUS(segPass.durations, shardPass.durations))
	r.layer("shard.cross_ratio", after.CrossRatio)
	r.layer("shard.cross_frontier_per_query", shardPass.per(after.CrossFrontier-before.CrossFrontier))
	r.layer("shard.index_bytes_ratio", float64(after.IndexBytes)/float64(max(segBytes, 1)))

	// The hash cut is several times slower, so it sees a prefix of the list.
	hash, err := openEngine("shard:4:reachgraph", warm, r.p.shardPoolPages, 0)
	if err != nil {
		return err
	}
	hashPass := r.setPass("shard:4:reachgraph", "shard", list[:r.p.ladderHash], want[:r.p.ladderHash], hash.reachSet)
	hashStats := hash.stats()
	r.layer("shard.hash_set_p50_us", hashPass.p50())
	r.layer("shard.hash_spatial_p50_us", quantileOfUS(shardPass.durations[:r.p.ladderHash], 0.5))
	r.layer("shard.hash_cross_ratio", hashStats.CrossRatio)
	r.layer("shard.hash_cross_frontier_per_query", hashPass.per(hashStats.CrossFrontier))
	r.layer("shard.hash_index_bytes_ratio", float64(hashStats.IndexBytes)/float64(max(segBytes, 1)))
	hash = nil

	r.tracedWindows(&instance{op: setOp(r.ctx, eng, in), close: func() {}})
	return nil
}
