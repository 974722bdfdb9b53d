// The pinned call surface. This is the only file of the benchmark that
// imports the repository's packages; everything else in the directory goes
// through the plain types declared here. Later changes may not edit this
// directory, so every identifier used below must stay alive (or keep a
// forwarding shim) for the benchmark to build. README.md lists them.

package main

import (
	"context"
	"net"
	"net/http"
	"time"

	"streach"
	"streach/internal/contact"
	"streach/internal/dn"
	"streach/internal/mobility"
	"streach/internal/pagefile"
	"streach/internal/reachgraph"
	"streach/internal/reachgrid"
	"streach/internal/serve"
)

// pointQuery asks whether Src reaches Dst during ticks [Lo, Hi].
type pointQuery struct{ Src, Dst, Lo, Hi int }

// setQuery asks for every object Src reaches during ticks [Lo, Hi].
type setQuery struct{ Src, Lo, Hi int }

// objSet is a reachable set as the engines and the oracle return it:
// sorted ascending, no duplicates.
type objSet = []streach.ObjectID

func sameSet(a, b objSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (q pointQuery) query() streach.Query {
	return streach.Query{
		Src:      streach.ObjectID(q.Src),
		Dst:      streach.ObjectID(q.Dst),
		Interval: streach.NewInterval(streach.Tick(q.Lo), streach.Tick(q.Hi)),
	}
}

func countsOfIO(expanded int, io streach.IOStats, answer int) counts {
	return counts{
		Expanded:    expanded,
		RandomReads: io.RandomReads,
		SeqReads:    io.SequentialReads,
		BufferHits:  io.BufferHits,
		Answer:      answer,
	}
}

func countsOfAcct(expanded int, acct *pagefile.Stats, answer int) counts {
	return counts{
		Expanded:    expanded,
		RandomReads: acct.RandomReads,
		SeqReads:    acct.SequentialReads,
		BufferHits:  acct.BufferHits,
		Answer:      answer,
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- layer: mobility (dataset generation; never timed) ---

// dataset is a generated trajectory archive. The raw archive stays inside
// the closures so that no other file names its type.
type dataset struct {
	name           string
	objects, ticks int
	facade         *streach.Dataset
	extract        func() *contact.Network
	source         func() streach.Source // a fresh facade: its contact extraction is not yet cached
	buildGrid      func() (*reachgrid.Index, error)
}

func newDataset[D any](name string, objects, ticks int, d D,
	wrap func(D) *streach.Dataset,
	extract func(D) *contact.Network,
	grid func(D, reachgrid.Params) (*reachgrid.Index, error)) *dataset {
	return &dataset{
		name: name, objects: objects, ticks: ticks,
		facade:    wrap(d),
		extract:   func() *contact.Network { return extract(d) },
		source:    func() streach.Source { return wrap(d) },
		buildGrid: func() (*reachgrid.Index, error) { return grid(d, reachgrid.Params{}) },
	}
}

func genRandomWaypoint(name string, objects, ticks int, seed int64) *dataset {
	d := mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: objects, NumTicks: ticks, Seed: seed})
	return newDataset(name, objects, ticks, d, streach.WrapDataset, contact.Extract, reachgrid.Build)
}

func genClustered(name string, objects, ticks, clusters int, roam float64, seed int64) *dataset {
	d := mobility.Clustered(mobility.ClusteredConfig{
		NumObjects: objects, NumTicks: ticks, NumClusters: clusters, RoamProb: roam, Seed: seed,
	})
	return newDataset(name, objects, ticks, d, streach.WrapDataset, contact.Extract, reachgrid.Build)
}

// warmSource returns the shared facade with its contact network already
// extracted, for opening a backend without paying for extraction again.
func (d *dataset) warmSource() streach.Source {
	d.facade.Contacts()
	return d.facade
}

// position returns object o's coordinates at tick t.
func (d *dataset) position(o, t int) (x, y float64) {
	p := d.facade.Position(streach.ObjectID(o), streach.Tick(t))
	return p.X, p.Y
}

// --- layer: contact (extraction) and the brute-force oracle ---

// network is an extracted contact network; raw is nil for a live snapshot.
type network struct {
	raw *contact.Network
	cn  *streach.ContactNetwork
}

func (d *dataset) extractContacts() *network {
	raw := d.extract()
	return &network{raw: raw, cn: streach.WrapContactNetwork(raw)}
}

func (n *network) contacts() int          { return n.cn.NumContacts() }
func (n *network) source() streach.Source { return n.cn }

// oracle is the ground truth: direct simulation of item propagation.
type oracle struct{ o *streach.Oracle }

func (n *network) oracle() oracle { return oracle{n.cn.Oracle()} }

func (o oracle) reachable(q pointQuery) bool { return o.o.Reachable(q.query()) }

func (o oracle) reachableSet(q setQuery) objSet {
	return o.o.ReachableSet(streach.ObjectID(q.Src),
		streach.NewInterval(streach.Tick(q.Lo), streach.Tick(q.Hi)))
}

// --- layers: dn, reachgraph, reachgrid (package calls, below the Engine) ---

// pointFn is one ladder rung's way of answering a point query.
type pointFn func(ctx context.Context, q pointQuery) (bool, counts, error)

// setFn is one ladder rung's way of answering a set query.
type setFn func(ctx context.Context, q setQuery) (objSet, counts, error)

// buildRawGraph runs dn.Build and reachgraph.Build with default parameters
// (64-page pool, BM-BFS) and returns the package-level point query.
func buildRawGraph(n *network) (fn pointFn, dnTime, buildTime time.Duration, err error) {
	t0 := time.Now()
	g := dn.Build(n.raw)
	dnTime = time.Since(t0)
	t0 = time.Now()
	ix, err := reachgraph.Build(g, reachgraph.Params{})
	buildTime = time.Since(t0)
	if err != nil {
		return nil, dnTime, buildTime, err
	}
	// Like Open: construction traffic is not query traffic.
	ix.ResetCounters()
	ix.DropCache()
	fn = func(ctx context.Context, q pointQuery) (bool, counts, error) {
		var acct pagefile.Stats
		ok, expanded, err := ix.ReachStrategyCounted(ctx, q.query(), streach.BMBFS, &acct)
		return ok, countsOfAcct(expanded, &acct, boolInt(ok)), err
	}
	return fn, dnTime, buildTime, nil
}

// buildRawGrid runs reachgrid.Build with default parameters.
func buildRawGrid(d *dataset) (fn pointFn, buildTime time.Duration, err error) {
	t0 := time.Now()
	ix, err := d.buildGrid()
	buildTime = time.Since(t0)
	if err != nil {
		return nil, buildTime, err
	}
	ix.ResetCounters()
	ix.Store().DropCache()
	fn = func(ctx context.Context, q pointQuery) (bool, counts, error) {
		var acct pagefile.Stats
		ok, expanded, err := ix.ReachCounted(ctx, q.query(), &acct)
		return ok, countsOfAcct(expanded, &acct, boolInt(ok)), err
	}
	return fn, buildTime, nil
}

// --- layers: engine, segmented, bidir, shard (streach.Open by name) ---

// engine is an opened streach.Engine.
type engine struct{ e streach.Engine }

// openEngine opens a registry backend. poolPages 0 keeps the default
// 64-page buffer pool; segmentTicks 0 keeps the default slab width.
func openEngine(name string, src streach.Source, poolPages, segmentTicks int) (*engine, error) {
	e, err := streach.Open(name, src, streach.Options{PoolPages: poolPages, SegmentTicks: segmentTicks})
	if err != nil {
		return nil, err
	}
	return &engine{e}, nil
}

func (h *engine) reach(ctx context.Context, q pointQuery) (bool, counts, error) {
	res, err := h.e.Reachable(ctx, q.query())
	return res.Reachable, countsOfIO(res.Expanded, res.IO, boolInt(res.Reachable)), err
}

func (h *engine) reachSet(ctx context.Context, q setQuery) (objSet, counts, error) {
	res, err := h.e.ReachableSet(ctx, streach.ObjectID(q.Src),
		streach.NewInterval(streach.Tick(q.Lo), streach.Tick(q.Hi)))
	return res.Objects, countsOfIO(res.Expanded, res.IO, len(res.Objects)), err
}

// engineStats is the part of streach.EngineStats the benchmark reads.
type engineStats struct {
	IndexBytes                          int64
	PoolHits, PoolMisses, PoolEvictions int64
	CrossRatio                          float64
	CrossFrontier                       int64
	NumTicks, Sealed, DeltaEvents       int
	LateEvents, Compactions             int64
}

func (h *engine) stats() engineStats {
	st := h.e.Stats()
	return engineStats{
		IndexBytes: st.IndexBytes,
		PoolHits:   st.Pool.Hits, PoolMisses: st.Pool.Misses, PoolEvictions: st.Pool.Evictions,
		CrossRatio: st.CrossShardRatio, CrossFrontier: st.CrossShardFrontier,
		NumTicks: st.NumTicks, Sealed: st.SealedSegments, DeltaEvents: st.DeltaEvents,
		LateEvents: st.LateEvents, Compactions: st.Compactions,
	}
}

// spanRef names the span a request is running under; the benchmark's HTTP
// middleware puts it in the request context and tracedEngine reads it back,
// which is how engine spans nest inside serve spans on a real socket.
type spanRef struct {
	id, op int
	rung   string
}

type spanRefKey struct{}

func withSpanRef(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanRefKey{}, ref)
}

// tracedEngine is the benchmark-owned Engine decorator: it forwards
// everything and records one "engine" span per Reachable call.
type tracedEngine struct {
	streach.Engine
	rec *recorder
}

func (t tracedEngine) Reachable(ctx context.Context, q streach.Query) (streach.Result, error) {
	ref, ok := ctx.Value(spanRefKey{}).(spanRef)
	if !ok {
		return t.Engine.Reachable(ctx, q)
	}
	id := t.rec.begin(ref.id, ref.op, "engine", ref.rung)
	res, err := t.Engine.Reachable(ctx, q)
	t.rec.end(id, countsOfIO(res.Expanded, res.IO, boolInt(res.Reachable)))
	return res, err
}

// traced wraps a frozen engine with the span decorator. (A LiveEngine must
// reach serve.New undecorated: serve enables ingest by type assertion.)
func (h *engine) traced(rec *recorder) *engine {
	return &engine{tracedEngine{Engine: h.e, rec: rec}}
}

// --- layer: live ---

// live is a LiveEngine fed from a generated dataset.
type live struct {
	le  *streach.LiveEngine
	buf []streach.Point
}

// newLive opens live:reachgraph-mem with 128-tick slabs and compaction at
// 256 pending events per slab.
func newLive(d *dataset) (*live, error) {
	le, err := streach.NewLiveEngine("reachgraph-mem", d.objects, d.facade.Env(), d.facade.ContactDist(),
		streach.Options{SegmentTicks: 128, CompactEvents: 256})
	if err != nil {
		return nil, err
	}
	return &live{le: le, buf: make([]streach.Point, d.objects)}, nil
}

// addInstant appends the dataset's positions at tick t as the next instant.
func (l *live) addInstant(d *dataset, t int) error {
	for o := range l.buf {
		l.buf[o] = d.facade.Position(streach.ObjectID(o), streach.Tick(t))
	}
	return l.le.AddInstant(l.buf)
}

// contactEvent is one out-of-order contact observation or its retraction.
type contactEvent struct {
	Tick, A, B int
	Retract    bool
}

func (l *live) ingest(evs []contactEvent) error {
	batch := make([]streach.ContactEvent, len(evs))
	for i, ev := range evs {
		batch[i] = streach.ContactEvent{
			Tick: streach.Tick(ev.Tick), A: streach.ObjectID(ev.A), B: streach.ObjectID(ev.B), Retract: ev.Retract,
		}
	}
	_, err := l.le.Ingest(batch)
	return err
}

func (l *live) engine() *engine    { return &engine{l.le} }
func (l *live) snapshot() *network { return &network{cn: l.le.Snapshot()} }

// --- layer: serve ---

// server is a serve.Server over one engine, with serve's defaults: a
// 4096-entry result cache and 2×GOMAXPROCS evaluation slots.
type server struct{ s *serve.Server }

func newServer(h *engine, datasetName string) *server {
	return &server{serve.New(h.e, serve.Config{Dataset: datasetName})}
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.s.ServeHTTP(w, r) }

// serve runs the server's own accept-and-drain lifecycle on l until ctx is
// cancelled.
func (s *server) serve(ctx context.Context, l net.Listener) error {
	return s.s.Serve(ctx, l, 5*time.Second)
}
