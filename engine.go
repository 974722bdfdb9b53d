// The unified engine API: every query evaluator in the package — the two
// paper indexes and the ground-truth oracle — is obtainable from a backend
// registry under a stable name and satisfies one Engine interface. Engines
// answer queries with typed Results carrying the per-query I/O delta, wall
// latency and expansion counters, replacing the mutable
// IOStats()/ResetStats() measurement pattern for serving-style use.

package streach

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/reachgraph"
	"streach/internal/reachgrid"
	"streach/internal/visit"
)

// Engine is the uniform query interface every registered backend satisfies.
// Engines are safe for concurrent use and evaluate read-only queries fully
// in parallel: every query threads its own I/O accountant through the
// traversal, and the shared buffer pool uses page-sharded latches with
// atomic counters, so no query ever serializes behind another. Per-query
// I/O deltas stay exact under concurrency (each query models its own disk
// arm); the deltas of successfully evaluated queries sum to the engine's
// cumulative Stats().IO.
type Engine interface {
	// Name returns the registry name the engine was opened under.
	Name() string
	// Reachable answers the reachability query q. The context is checked
	// before evaluation begins and observed inside the expansion loops of
	// the traversal backends, so cancelling it aborts a long-running
	// evaluation promptly with ctx.Err(). With q.Semantics.TrackArrival set
	// the Result also carries the earliest tick at which Dst holds the item
	// — the |T'p| of Theorems 4.1/5.4 — and its transfer count; backends
	// without a native evaluation of q's semantics fall back to the
	// brute-force oracle over the engine's source contacts (Result.Native
	// reports which path answered).
	Reachable(ctx context.Context, q Query) (Result, error)
	// ReachableSet returns every object reachable from src during iv
	// (including src when the interval overlaps the time domain), by one
	// forward sweep of the backend's core. The returned slice is sorted
	// ascending and free of duplicates for every backend.
	ReachableSet(ctx context.Context, src ObjectID, iv Interval) (SetResult, error)
	// TopKReachable returns the k objects (src excluded) reachable from
	// src during iv that receive the item with the highest decayed weight
	// decay^transfers, ranked by weight, then arrival tick, then ID.
	// Backends that cannot track transfer counts natively fall back to the
	// oracle (TopKResult.Native).
	TopKReachable(ctx context.Context, src ObjectID, iv Interval, k int, decay float64) (TopKResult, error)
	// Stats returns a consistent point-in-time snapshot of the engine's
	// observable state — cumulative I/O, buffer-pool counters, index
	// footprint, time-domain dimensions, per-segment and per-shard detail —
	// the one struct a serving layer reads. The snapshot is safe to take
	// while queries run; all counters are atomic. Its IO totals are exact
	// under concurrency: the IO deltas of successfully evaluated queries
	// sum to them (queries that error or are cancelled mid-evaluation
	// charge the totals but return no delta).
	Stats() EngineStats
}

// Result is the typed answer to one reachability query.
type Result struct {
	// Query echoes the evaluated query.
	Query Query
	// Reachable is the boolean answer.
	Reachable bool
	// IO is the simulated disk traffic this query alone charged (zero for
	// memory-resident backends).
	IO IOStats
	// Latency is the wall time spent evaluating the query.
	Latency time.Duration
	// Expanded counts the evaluation frontier: objects infected by
	// propagation-style backends, vertex visits by graph traversals.
	Expanded int
	// Evaluated reports whether the query ran; EvaluateBatch leaves it
	// false for queries skipped after cancellation or a failure.
	Evaluated bool
	// Arrival is the earliest tick at which Dst holds the item. It is
	// computed only when Query.Semantics routes the query through the
	// semantics layer; -1 otherwise, and for negative queries.
	Arrival Tick
	// Hops is the minimal number of inter-object transfers among delivery
	// chains arriving by the Arrival tick, when the evaluator tracks
	// transfer counts (hop-bounded queries on hop-counting backends); -1
	// otherwise. Probabilistic queries instead report the full-interval
	// minimum — the transfer count of the best path, which may arrive
	// after the Arrival tick.
	Hops int
	// Native reports whether the semantics layer answered natively in the
	// backend's traversal core; false means the oracle fallback evaluated
	// the query. Plain boolean queries are always native.
	Native bool
	// Prob is the delivery probability under Query.Semantics.Prob: the
	// best single-path probability p^Hops for exact evaluations, or the
	// sampled two-terminal reliability estimate when MCTrials requested the
	// Monte-Carlo fallback. Zero for non-probabilistic queries and for
	// unreachable destinations.
	Prob float64
}

// SetResult is the typed answer to one reachable-set query.
type SetResult struct {
	// Src and Interval echo the evaluated query.
	Src      ObjectID
	Interval Interval
	// Objects is the reachable set, src included (empty when the interval
	// misses the time domain), sorted ascending and deduplicated.
	Objects []ObjectID
	// IO, Latency mirror Result.
	IO      IOStats
	Latency time.Duration
	// Expanded counts the evaluation frontier as Result.Expanded does:
	// objects infected by propagation-style backends, vertices visited by
	// graph traversals, summed over every slab or shard a planner swept.
	// It is not the size of the set, which is len(Objects).
	Expanded int
}

// Errors returned by Open.
var (
	// ErrUnknownBackend reports a name the backend grammar does not accept,
	// or a composition whose base lacks the capability its wrapper needs.
	ErrUnknownBackend = errors.New("streach: unknown backend")
	// ErrNeedsTrajectories reports a trajectory-indexing backend opened
	// from a bare contact network.
	ErrNeedsTrajectories = errors.New("streach: backend indexes trajectories; open it from a *Dataset")
)

// Source is a data source an engine can be opened from: a *Dataset (full
// trajectory archive) or a *ContactNetwork (pre-extracted contacts, e.g. a
// LiveEngine snapshot). Graph-based backends accept either; ReachGrid
// indexes raw trajectories and needs a *Dataset.
type Source interface {
	sourceDataset() *Dataset
	sourceContacts() *ContactNetwork
}

func (ds *Dataset) sourceDataset() *Dataset         { return ds }
func (ds *Dataset) sourceContacts() *ContactNetwork { return ds.Contacts() }

func (cn *ContactNetwork) sourceDataset() *Dataset         { return nil }
func (cn *ContactNetwork) sourceContacts() *ContactNetwork { return cn }

// BufferPool is a concurrency-safe LRU page cache for the simulated disk.
// One pool can back several engines over the same dataset (pages are keyed
// by store identity), giving all readers a common page budget; its global
// hit/miss/eviction counters are atomic.
type BufferPool = pagefile.BufferPool

// PoolStats is a snapshot of a BufferPool's global counters.
type PoolStats = pagefile.PoolStats

// NewBufferPool returns a pool holding at most pages cached pages, for
// sharing across the engines of one dataset via Options.Pool.
func NewBufferPool(pages int) *BufferPool { return pagefile.NewBufferPool(pages) }

// Options configures Open. The zero value selects the paper's empirical
// optima for every backend; fields irrelevant to the opened backend are
// ignored.
type Options struct {
	// PoolPages sizes the private buffer pool of the simulated disk
	// (disk-resident backends). Ignored when Pool is set.
	PoolPages int
	// Pool, when non-nil, is a buffer pool shared across engines: every
	// disk-resident backend opened with the same Pool draws on one common
	// page budget (the serving configuration — one cache per dataset, many
	// concurrent readers).
	Pool *BufferPool

	// CellSize is the ReachGrid spatial resolution RS in metres.
	CellSize float64
	// BucketTicks is the ReachGrid temporal resolution RT in instants.
	BucketTicks int

	// PartitionDepth is the ReachGraph partition depth dp.
	PartitionDepth int
	// Resolutions lists the ReachGraph long-edge levels (ascending powers
	// of two); nil selects {2, 4, 8, 16, 32}.
	Resolutions []int

	// SegmentTicks is the time-slab width of the segmented backends
	// ("segmented:<name>") and of LiveEngine: the time axis is split into
	// slabs of this many instants, each carrying its own index segment.
	// Zero selects segment.DefaultWidth (128). Ignored by unsegmented
	// backends.
	SegmentTicks int

	// IngestHorizon bounds how far past the current frontier a LiveEngine
	// contact event may land (LiveEngine.Ingest): an add at tick t is
	// rejected with ErrIngestHorizon when t >= frontier + IngestHorizon.
	// Zero selects 4 slab widths; negative disables the bound. Ignored by
	// frozen backends.
	IngestHorizon int

	// CompactEvents is the LiveEngine delta-log compaction threshold: when
	// an ingest leaves a sealed segment with at least this many pending
	// late/retraction events, the segment is re-sealed (compacted) before
	// Ingest returns. Zero disables the policy — dirty segments then only
	// compact on an explicit LiveEngine.Compact call. Ignored by frozen
	// backends.
	CompactEvents int
}

// BackendInfo describes one registered backend.
type BackendInfo struct {
	// Name is the canonical name accepted by Open.
	Name string
	// Description is a one-line summary.
	Description string
	// DiskResident reports whether queries charge simulated disk I/O.
	DiskResident bool
	// NeedsTrajectories reports whether Open requires a *Dataset source.
	NeedsTrajectories bool
}

// backendSpec is a resolved backend name: what Open builds for it.
type backendSpec struct {
	info BackendInfo
	// open builds the backend's core over src; go through build, which
	// checks the source first.
	open func(src Source, opts Options) (core, error)

	// The outermost combinator of the name, so that NewLiveEngine can grow
	// the same structure over an ingest log instead of a frozen source:
	// base is the spec it wraps (nil for a leaf), live marks "live:", sliced
	// "segmented:" and "bidir:" (bidir the latter), and sharded "shard:<K>",
	// which NewLiveEngine refuses.
	base    *backendSpec
	live    bool
	sliced  bool
	bidir   bool
	sharded bool
}

// build opens the spec's core over src.
func (s backendSpec) build(src Source, opts Options) (core, error) {
	if s.info.NeedsTrajectories && src.sourceDataset() == nil {
		return nil, fmt.Errorf("%q: %w", s.info.Name, ErrNeedsTrajectories)
	}
	return s.open(src, opts)
}

// defaultResolutions are the paper's optimal long-edge levels (§6.2.1.4).
func defaultResolutions(res []int) []int {
	if res == nil {
		return []int{2, 4, 8, 16, 32}
	}
	return res
}

// leaves holds the index backends: the names a composed name bottoms out
// in.
var leaves = leafSpecs()

func leafSpecs() map[string]backendSpec {
	specs := map[string]backendSpec{}
	register := func(info BackendInfo, open func(Source, Options) (core, error)) {
		specs[info.Name] = backendSpec{info: info, open: open}
	}
	register(BackendInfo{
		Name:              "reachgrid",
		Description:       "spatiotemporal grid with guided on-the-fly expansion (§4)",
		DiskResident:      true,
		NeedsTrajectories: true,
	}, func(src Source, opts Options) (core, error) {
		ix, err := reachgrid.Build(src.sourceDataset().d, reachgrid.Params{
			CellSize:    opts.CellSize,
			BucketTicks: opts.BucketTicks,
			PoolPages:   opts.PoolPages,
			Pool:        opts.Pool,
		})
		if err != nil {
			return nil, err
		}
		return gridCore{onDisk(ix.Store()), ix}, nil
	})
	register(BackendInfo{
		Name:         "reachgraph",
		Description:  "disk-partitioned contact-network DAG, BM-BFS traversal (§5)",
		DiskResident: true,
	}, func(src Source, opts Options) (core, error) {
		ix, err := reachgraph.Build(dn.Build(src.sourceContacts().net), reachgraph.Params{
			PartitionDepth: opts.PartitionDepth,
			Resolutions:    opts.Resolutions,
			PoolPages:      opts.PoolPages,
			Pool:           opts.Pool,
		})
		if err != nil {
			return nil, err
		}
		return graphCore{onDisk(ix.Store()), ix}, nil
	})
	register(BackendInfo{
		Name:        "reachgraph-mem",
		Description: "memory-resident ReachGraph, BM-BFS traversal (§6.4)",
	}, func(src Source, opts Options) (core, error) {
		m, err := reachgraph.NewMem(dn.Build(src.sourceContacts().net), defaultResolutions(opts.Resolutions))
		if err != nil {
			return nil, err
		}
		return graphMemCore{m: m}, nil
	})
	register(BackendInfo{
		Name:        "oracle",
		Description: "brute-force propagation simulation, the ground truth (§3.2)",
	}, func(src Source, opts Options) (core, error) {
		return oracleCore{o: queries.NewOracle(src.sourceContacts().net)}, nil
	})
	return specs
}

// resolve is the one parser of backend names. The grammar is
//
//	name := leaf | "segmented:" name | "bidir:" name
//	      | "shard:" K [":hash" | ":spatial"] ":" name
//
// plus a leading "live:", the mark of a LiveEngine's name, which only
// NewLiveEngine builds; peeled recursively down to a leaf;
// each prefix is a combinator over the spec of the rest, and BackendInfo is
// derived from the leaf through the wrappers. Which nestings are legal is
// not decided here but by the capability predicate of the cores the
// combinators build (a "segmented:" base must sweep forward, a "bidir:"
// base backward too, a "shard:" base hop-agnostically) — except that a
// wrapper directly wrapping itself is not a name.
func resolve(name string) (backendSpec, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if leaf, ok := leaves[name]; ok {
		return leaf, nil
	}
	unknown := fmt.Errorf("%w %q", ErrUnknownBackend, name)
	head, rest, _ := strings.Cut(name, ":")
	var wrap func(base backendSpec) backendSpec
	switch head {
	case "segmented", "bidir":
		wrap = func(base backendSpec) backendSpec { return segmentedOver(base, head == "bidir") }
	case "shard":
		kStr, after, _ := strings.Cut(rest, ":")
		k, err := strconv.Atoi(kStr)
		if err != nil || k < 1 {
			return backendSpec{}, unknown
		}
		partitioner := "hash"
		rest = after
		if p, after, found := strings.Cut(rest, ":"); found && (p == "hash" || p == "spatial") {
			partitioner, rest = p, after
		}
		wrap = func(base backendSpec) backendSpec { return shardOver(k, partitioner, base) }
	case "live":
		wrap = liveOver
	default:
		return backendSpec{}, unknown
	}
	if rest == "" || strings.HasPrefix(rest, head+":") {
		return backendSpec{}, unknown
	}
	base, err := resolve(rest)
	if err != nil {
		return backendSpec{}, err
	}
	return wrap(base), nil
}

// advertised is the one list behind Backends: the leaves plus the composed
// names worth sweeping in every conformance matrix. Any other name the
// grammar accepts opens just the same.
var advertised = []string{
	"bidir:oracle", "bidir:reachgraph", "bidir:reachgraph-mem",
	"oracle", "reachgraph", "reachgraph-mem", "reachgrid",
	"segmented:oracle", "segmented:reachgraph", "segmented:reachgraph-mem", "segmented:reachgrid",
	"shard:1:reachgraph", "shard:1:spatial:reachgraph",
	"shard:2:reachgraph", "shard:2:spatial:reachgraph",
	"shard:4:reachgraph", "shard:4:spatial:reachgraph",
}

var advertisedInfos = func() []BackendInfo {
	infos := make([]BackendInfo, len(advertised))
	for i, name := range advertised {
		spec, err := resolve(name)
		if err != nil || spec.info.Name != name {
			panic(fmt.Sprintf("streach: advertised backend %q does not resolve to itself: %v", name, err))
		}
		infos[i] = spec.info
	}
	return infos
}()

// Backends lists the registered backend names in sorted order.
func Backends() []string { return slices.Clone(advertised) }

// BackendInfos describes every registered backend, sorted by name.
func BackendInfos() []BackendInfo { return slices.Clone(advertisedInfos) }

// LookupBackend resolves a backend name — a registered one or any
// composition the name grammar accepts — to its BackendInfo, reporting
// whether the name parses. Open can still refuse a parsed name whose base
// lacks the capability a wrapper needs.
func LookupBackend(name string) (BackendInfo, bool) {
	spec, err := resolve(name)
	return spec.info, err == nil
}

// Open builds the named backend over src and returns it as an Engine.
// Backend selection is by name (see Backends and the grammar in the
// README); src is a *Dataset or, for graph-based backends, optionally a
// pre-extracted *ContactNetwork such as a LiveEngine snapshot.
func Open(name string, src Source, opts Options) (Engine, error) {
	spec, err := resolve(name)
	if err != nil {
		return nil, fmt.Errorf("%w (available: %s)", err, strings.Join(advertised, ", "))
	}
	if src == nil {
		return nil, fmt.Errorf("streach: open %q: nil source", spec.info.Name)
	}
	c, err := spec.build(src, opts)
	if err != nil {
		return nil, fmt.Errorf("streach: open %q: %w", spec.info.Name, err)
	}
	// Engines start with zeroed counters and a cold buffer pool:
	// construction traffic is not query traffic. With a shared pool only
	// this engine's pages are evicted.
	d := c.disk()
	d.resetIO()
	d.dropCache()
	numObjects, numTicks := sourceDims(src)
	return &engine{
		name:       spec.info.Name,
		numObjects: numObjects,
		core:       c,
		numTicks:   numTicks,
		// For trajectory sources this triggers (or reuses) the dataset's one
		// cached contact extraction.
		fallback: sync.OnceValue(func() *queries.Oracle {
			return queries.NewOracle(src.sourceContacts().net)
		}),
	}, nil
}

func sourceDims(src Source) (numObjects, numTicks int) {
	if ds := src.sourceDataset(); ds != nil {
		return ds.NumObjects(), ds.NumTicks()
	}
	cn := src.sourceContacts()
	return cn.NumObjects(), cn.NumTicks()
}

// withSharedPool returns opts with a buffer pool for one group of
// disk-resident stores to share — the slabs of a segmented or live engine,
// one shard's child: the caller's Options.Pool when set, otherwise a fresh
// private one, so the group draws on a single page budget exactly like the
// serving configuration of a plain engine. The 64-page fallback mirrors the
// backends' own Params default.
func withSharedPool(opts Options, diskResident bool) Options {
	if !diskResident || opts.Pool != nil {
		return opts
	}
	pages := opts.PoolPages
	if pages == 0 {
		pages = 64
	}
	if pages > 0 {
		opts.Pool = NewBufferPool(pages)
	}
	return opts
}

// direction orients a sweep in time.
type direction = queries.Direction

const (
	forward  = queries.Forward
	backward = queries.Backward
)

// core is the one backend surface the root package composes: every index
// adapter, every combinator ("segmented:", "bidir:", "shard:") and every
// pinned view of a live feed implements it, and combinators are functions
// from cores to cores. Implementations must be safe for concurrent calls:
// all traversal state is per-call and page reads are charged to the
// caller's accountant.
//
// There are two evaluation methods because there are two kinds of
// algorithm, selected by the kind of query: reach is the index's own point
// algorithm, which stops at the destination (BM-BFS visits a twentieth of
// the vertices a forward sweep does); sweep is the propagation profile
// every other answer — set, arrival, top-k, hop-bounded, filtered,
// probabilistic, and the frontier carried between slabs and shards — is a
// projection of.
type core interface {
	// reach answers "can an item held by any seed at iv.Lo reach dst by
	// iv.Hi?", returning the expansion counter alongside. Callers validate
	// object IDs; iv is clamped to the core's time domain.
	reach(ctx context.Context, seeds []ObjectID, dst ObjectID, iv Interval, acct *pagefile.Stats) (ok bool, expanded int, err error)
	// sweep appends to out the propagation profile of the seed frontier
	// over iv under spec, sorted by object: forward, each reachable
	// object's earliest arrival tick and its minimal transfer count (-1
	// when the core does not count transfers); backward, each deliverer's
	// latest departure tick. A valid early stops the evaluation as soon as
	// that object is reached (the profile is then partial but its entry
	// exact). The int result is the expansion counter. A core that cannot
	// serve spec natively returns errNotNative and out untouched.
	sweep(ctx context.Context, out []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, early ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error)
	// supports reports whether sweep serves spec. Combinators consult it
	// when they open a base; at query time sweep's own errNotNative is the
	// authority, because it speaks for the state the evaluation pinned.
	supports(spec semSpec) bool
	// disk returns the simulated-disk stores behind the core.
	disk() diskIO
}

// errNotNative is sweep's "this core has no native evaluation of the spec":
// the engine then answers through the oracle. Every core sweeps hopAgnostic,
// so a plain set query never sees it.
var errNotNative = errors.New("streach: no native evaluation")

// diskIO is the store-backed helper behind every core's I/O surface: the
// page stores the core reads, plus the totals carried over from stores a
// live compaction retired. Index adapters embed it (memory-resident ones
// its zero value); combinators merge their children's.
type diskIO struct {
	stores  []*pagefile.Store
	carried pagefile.Stats
}

func onDisk(st *pagefile.Store) diskIO { return diskIO{stores: []*pagefile.Store{st}} }

func (d diskIO) disk() diskIO { return d }

// merge adds o's stores and carried totals to d, which must own its slice.
func (d *diskIO) merge(o diskIO) {
	d.stores = append(d.stores, o.stores...)
	d.carried.Add(o.carried)
}

// ioTotals sums the cumulative I/O counters.
func (d diskIO) ioTotals() pagefile.Stats {
	sum := d.carried
	for _, st := range d.stores {
		sum.Add(st.Counters())
	}
	return sum
}

// resetIO zeroes the cumulative counters.
func (d diskIO) resetIO() {
	for _, st := range d.stores {
		st.ResetCounters()
	}
}

// indexBytes is the simulated on-disk size.
func (d diskIO) indexBytes() int64 {
	var sum int64
	for _, st := range d.stores {
		sum += st.SizeBytes()
	}
	return sum
}

// dropCache evicts the stores' pages from their buffer pools.
func (d diskIO) dropCache() {
	for _, st := range d.stores {
		st.DropCache()
	}
}

// poolStats sums the counters of the distinct buffer pools the stores draw
// on: one shared pool reports pool-wide, per-shard private pools add up.
func (d diskIO) poolStats() (sum PoolStats, ok bool) {
	var seen []*BufferPool
	for _, st := range d.stores {
		p := st.Pool()
		if p == nil || slices.Contains(seen, p) {
			continue
		}
		seen = append(seen, p)
		ps := p.Stats()
		sum.Hits += ps.Hits
		sum.Misses += ps.Misses
		sum.Evictions += ps.Evictions
		sum.Resident += ps.Resident
		sum.Capacity += ps.Capacity
	}
	return sum, len(seen) > 0
}

// engine adapts a core to the Engine interface, measuring each query
// through its own I/O accountant. There is no engine-level lock: cores are
// concurrency-safe and queries run fully in parallel.
type engine struct {
	name       string
	numObjects int

	// core and numTicks are a frozen engine's index and time domain. A live
	// engine leaves them unset and supplies view, which pins one consistent
	// state of its logs per call (see pinned).
	core     core
	numTicks int
	view     func() (core, int)

	// fallback returns a brute-force oracle over the engine's contacts, for
	// query semantics the core has no native evaluation of and for the
	// Monte-Carlo estimator: built once, on first use, for a frozen engine;
	// over a fresh snapshot for a live one.
	fallback func() *queries.Oracle
}

// pinned returns the core one query evaluates against and the size of its
// time domain. A query calls it exactly once: on a live engine a compaction
// between two views can swap an all-capable oracle overlay for a
// hop-agnostic sealed index, so the capability check, the clamping and the
// evaluation of one query must all see the same slab list.
func (e *engine) pinned() (core, int) {
	if e.view != nil {
		return e.view()
	}
	return e.core, e.numTicks
}

func (e *engine) Name() string { return e.name }

// queryScratch is the pooled per-query state of the engine wrapper: the I/O
// accountant and the one-seed frontier (both escape into the core's
// interface calls, so stack locals would cost a heap allocation per query —
// the only ones left on the memory backends' hot path) plus the seed and
// entry buffers of a profile evaluation.
type queryScratch struct {
	acct    pagefile.Stats
	src     [1]ObjectID
	seeds   []queries.SeedState
	entries []queries.ProfileEntry
}

var queryPool = visit.NewPool(func() *queryScratch { return new(queryScratch) })

func getQueryScratch() *queryScratch {
	qs := queryPool.Get()
	qs.acct.Reset()
	return qs
}

func validateIDs(numObjects int, src, dst ObjectID) error {
	if int(src) < 0 || int(src) >= numObjects {
		return fmt.Errorf("streach: source %d outside [0, %d)", src, numObjects)
	}
	if int(dst) < 0 || int(dst) >= numObjects {
		return fmt.Errorf("streach: destination %d outside [0, %d)", dst, numObjects)
	}
	return nil
}

// clampDomain intersects iv with a numTicks-sized time domain.
func clampDomain(iv Interval, numTicks int) Interval {
	return iv.Intersect(Interval{Lo: 0, Hi: Tick(numTicks - 1)})
}

func (e *engine) Reachable(ctx context.Context, q Query) (Result, error) {
	// A query that queued behind slow ones must not start evaluating after
	// its context was cancelled.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if q.Semantics.Active() {
		return e.reachableSem(ctx, q)
	}
	if err := validateIDs(e.numObjects, q.Src, q.Dst); err != nil {
		return Result{}, err
	}
	c, numTicks := e.pinned()
	res := Result{Query: q, Evaluated: true, Arrival: -1, Hops: -1, Native: true}
	iv := clampDomain(q.Interval, numTicks)
	if iv.Len() == 0 {
		return res, nil
	}
	if q.Src == q.Dst {
		res.Reachable = true
		return res, nil
	}
	qs := getQueryScratch()
	defer queryPool.Put(qs)
	qs.src[0] = q.Src
	start := time.Now()
	ok, expanded, err := c.reach(ctx, qs.src[:], q.Dst, iv, &qs.acct)
	if err != nil {
		return Result{}, err
	}
	res.Reachable = ok
	res.IO = statsOf(qs.acct)
	res.Latency = time.Since(start)
	res.Expanded = expanded
	return res, nil
}

func (e *engine) ReachableSet(ctx context.Context, src ObjectID, iv Interval) (SetResult, error) {
	if err := ctx.Err(); err != nil {
		return SetResult{}, err
	}
	if err := validateIDs(e.numObjects, src, src); err != nil {
		return SetResult{}, err
	}
	c, numTicks := e.pinned()
	qs := getQueryScratch()
	defer queryPool.Put(qs)
	start := time.Now()
	var objs []ObjectID
	var expanded int
	if clamped := clampDomain(iv, numTicks); clamped.Len() > 0 {
		qs.seeds = append(qs.seeds[:0], queries.SeedState{Obj: src})
		entries, n, err := c.sweep(ctx, qs.entries[:0], qs.seeds, clamped, hopAgnostic, queries.NoObject, &qs.acct)
		if err != nil {
			return SetResult{}, err
		}
		qs.entries, expanded = entries, n
		objs = make([]ObjectID, len(entries))
		for i, en := range entries {
			objs[i] = en.Obj
		}
	}
	return SetResult{
		Src:      src,
		Interval: iv,
		Objects:  objs,
		IO:       statsOf(qs.acct),
		Latency:  time.Since(start),
		Expanded: expanded,
	}, nil
}

// --- index adapters ---

type gridCore struct {
	diskIO
	ix *reachgrid.Index
}

func (c gridCore) reach(ctx context.Context, seeds []ObjectID, dst ObjectID, iv Interval, acct *pagefile.Stats) (bool, int, error) {
	return c.ix.ReachFromCounted(ctx, seeds, dst, iv, acct)
}

// The grid joins object positions per instant and never sees contact
// records, so per-contact predicates cannot be pushed into the sweep; its
// guided expansion follows trajectories forward in time and has no backward
// analogue.
func (c gridCore) supports(spec semSpec) bool {
	return spec.dir == forward && !spec.filter.Active()
}

func (c gridCore) sweep(ctx context.Context, out []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, early ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	if !c.supports(spec) {
		return out, 0, errNotNative
	}
	return c.ix.AppendSemProfileFrom(ctx, out, seeds, iv, spec.budget, early, acct)
}

type graphCore struct {
	diskIO
	ix *reachgraph.Index
}

func (c graphCore) reach(ctx context.Context, seeds []ObjectID, dst ObjectID, iv Interval, acct *pagefile.Stats) (bool, int, error) {
	return c.ix.ReachFromCounted(ctx, seeds, dst, iv, BMBFS, acct)
}

// graphSupports is the sweep capability of both ReachGraph adapters: runs
// collapse contact components, so neither transfer counts nor per-contact
// predicates are derivable from the run DAG; arrival and departure sweeps
// in either direction are.
func graphSupports(spec semSpec) bool { return !spec.tracksHops() && !spec.filter.Active() }

func (c graphCore) supports(spec semSpec) bool { return graphSupports(spec) }

func (c graphCore) sweep(ctx context.Context, out []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, _ ObjectID, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	if !graphSupports(spec) {
		return out, 0, errNotNative
	}
	return c.ix.AppendProfile(ctx, out, seeds, iv, spec.dir, spec.done, acct)
}

type graphMemCore struct {
	diskIO
	m *reachgraph.Mem
}

func (c graphMemCore) reach(ctx context.Context, seeds []ObjectID, dst ObjectID, iv Interval, _ *pagefile.Stats) (bool, int, error) {
	return c.m.ReachFromCounted(ctx, seeds, dst, iv, BMBFS)
}

func (c graphMemCore) supports(spec semSpec) bool { return graphSupports(spec) }

func (c graphMemCore) sweep(ctx context.Context, out []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, _ ObjectID, _ *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	if !graphSupports(spec) {
		return out, 0, errNotNative
	}
	return c.m.AppendProfile(ctx, out, seeds, iv, spec.dir, spec.done)
}

// seedStates lifts a bare frontier — every object holding the item from
// the interval start, no transfer spent — into sweep seeds.
func seedStates(objs []ObjectID) []queries.SeedState {
	seeds := make([]queries.SeedState, len(objs))
	for i, o := range objs {
		seeds[i].Obj = o
	}
	return seeds
}

// objectsOf is the frontier of a backward sweep as the oracle takes it:
// every backward seed holds from the interval end, so Start and Hops carry
// nothing.
func objectsOf(seeds []queries.SeedState) []ObjectID {
	objs := make([]ObjectID, len(seeds))
	for i, s := range seeds {
		objs[i] = s.Obj
	}
	return objs
}

// oracleCore projects both evaluation methods from Oracle.ProfileFrom, the
// per-instant hop relaxation: it serves every forward spec, and it is an
// order of magnitude cheaper than the union-find propagation of
// Oracle.Reachable/ReachableSet — which stay untouched as the reference the
// tests compare against — on the dirty slabs and the tail of a live engine.
type oracleCore struct {
	diskIO
	o *queries.Oracle
}

func (c oracleCore) reach(_ context.Context, seeds []ObjectID, dst ObjectID, iv Interval, _ *pagefile.Stats) (bool, int, error) {
	entries, n := c.o.ProfileFrom(seedStates(seeds), iv, queries.UnboundedHops, dst)
	_, ok := findEntry(entries, dst)
	return ok, n, nil
}

// Backward, the oracle runs its time-mirrored propagation, which does not
// count transfers.
func (c oracleCore) supports(spec semSpec) bool {
	return spec.dir == forward || !spec.tracksHops()
}

func (c oracleCore) sweep(_ context.Context, out []queries.ProfileEntry, seeds []queries.SeedState, iv Interval, spec semSpec, early ObjectID, _ *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	if !c.supports(spec) {
		return out, 0, errNotNative
	}
	o := c.o.Filtered(spec.filter)
	if spec.dir == backward {
		entries := o.ReverseProfileFrom(objectsOf(seeds), iv)
		return append(out, entries...), len(entries), nil
	}
	entries, n := o.ProfileFrom(seeds, iv, spec.budget, early)
	return append(out, entries...), n, nil
}
