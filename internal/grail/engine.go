// Memory- and disk-resident GRAIL query engines.
//
// Both engines answer contact-network reachability queries by reducing them
// to vertex reachability on DN (the same reduction ReachGraph uses for its
// E-DFS baseline): the query is positive iff the vertex of the source at
// the interval start reaches the vertex of the destination at the interval
// end, because consecutive runs of the destination object are linked.
//
// The disk engine models the adaptation of §6.4: "the vertices are placed
// on disk in the same order they are generated during contact network
// construction". Vertex records — labels plus DN1 out-edges — are packed
// into page-sized blobs in vertex order; an in-memory table maps a vertex
// to its blob (the moral equivalent of offset arithmetic over fixed-size
// records). Pruning needs the labels of a child, which live in the child's
// record, so the pruned DFS pays a page read per *visited* vertex and the
// labels save only the descents — the structural reason GRAIL loses to
// ReachGraph on disk (Table 5b) while staying competitive in memory
// (Table 5a).
package grail

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"streach/internal/contact"
	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/trajectory"
	"streach/internal/visit"
)

// dfsScratch is the pooled working state of the label-pruned DFS: an
// epoch-stamped visited set over the DAG's dense vertex IDs plus a
// reusable stack. Steady-state memory-engine queries allocate nothing.
type dfsScratch struct {
	visited visit.Set
	stack   visit.Deque[dn.NodeID]
	visits  int
}

func newDFSPool() *visit.Pool[dfsScratch] {
	return visit.NewPool(func() *dfsScratch { return new(dfsScratch) })
}

func (sc *dfsScratch) reset(numNodes int) {
	sc.visited.Reset(numNodes)
	sc.stack.Reset()
	sc.visits = 0
}

// Mem is the memory-resident GRAIL engine.
type Mem struct {
	g      *dn.Graph
	labels *Labels
	pool   *visit.Pool[dfsScratch]
}

// NewMem labels g with d passes and returns a memory engine.
func NewMem(g *dn.Graph, d int, seed int64) (*Mem, error) {
	labels, err := BuildLabels(g, d, seed)
	if err != nil {
		return nil, err
	}
	return &Mem{g: g, labels: labels, pool: newDFSPool()}, nil
}

// ReachCounted answers q by label-pruned DFS and returns the number of
// vertices the DFS visited. The context is observed inside the DFS loop.
func (m *Mem) ReachCounted(ctx context.Context, q queries.Query) (bool, int, error) {
	u, v, done, ans, err := entryVertices(m.g, q)
	if done || err != nil {
		return ans, 0, err
	}
	if !m.labels.MayReach(u, v) {
		return false, 0, nil
	}
	sc := m.pool.Get()
	defer m.pool.Put(sc)
	sc.reset(len(m.g.Nodes))
	sc.visited.Visit(int(u))
	sc.visits = 1
	sc.stack.PushBack(u)
	for sc.stack.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return false, sc.visits, err
		}
		cur, _ := sc.stack.PopBack()
		if cur == v {
			return true, sc.visits, nil
		}
		for _, c := range m.g.Out(cur) {
			if !sc.visited.Has(int(c)) && m.labels.MayReach(c, v) {
				sc.visited.Visit(int(c))
				sc.visits++
				sc.stack.PushBack(c)
			}
		}
	}
	return false, sc.visits, nil
}

// entryVertices maps a query to its DN entry vertices and handles the
// degenerate cases shared by both engines.
func entryVertices(g *dn.Graph, q queries.Query) (u, v dn.NodeID, done, ans bool, err error) {
	if int(q.Src) < 0 || int(q.Src) >= g.NumObjects ||
		int(q.Dst) < 0 || int(q.Dst) >= g.NumObjects {
		return 0, 0, true, false, fmt.Errorf("grail: query objects outside [0, %d)", g.NumObjects)
	}
	iv := q.Interval.Intersect(contact.Interval{Lo: 0, Hi: trajectory.Tick(g.NumTicks - 1)})
	if iv.Len() == 0 {
		return 0, 0, true, false, nil
	}
	if q.Src == q.Dst {
		return 0, 0, true, true, nil
	}
	u = g.NodeOf(q.Src, iv.Lo)
	v = g.NodeOf(q.Dst, iv.Hi)
	if u == dn.Invalid || v == dn.Invalid {
		return 0, 0, true, false, nil
	}
	if u == v {
		return 0, 0, true, true, nil
	}
	return u, v, false, false, nil
}

// Disk is the disk-resident GRAIL engine.
type Disk struct {
	store      *pagefile.Store
	d          int
	numObjects int
	numTicks   int

	blobOf   []int32            // vertex → blob index
	blobRefs []pagefile.BlobRef // blob catalogue
	dirRefs  []pagefile.BlobRef // per-object run directory

	pool *visit.Pool[dfsScratch]
}

// diskVertex is a decoded disk record.
type diskVertex struct {
	lo, hi []int32 // d labels
	out    []dn.NodeID
}

// NewDisk labels g and lays the labelled vertices out on a simulated disk
// in vertex (generation) order. pool, when non-nil, is a buffer pool shared
// with other indexes over the same dataset; otherwise a private pool of
// poolPages pages is used (0 selects 64, negative disables caching).
func NewDisk(g *dn.Graph, d int, seed int64, poolPages int, pool *pagefile.BufferPool) (*Disk, error) {
	if len(g.Nodes) == 0 {
		return nil, errors.New("grail: empty graph")
	}
	labels, err := BuildLabels(g, d, seed)
	if err != nil {
		return nil, err
	}
	if poolPages == 0 {
		poolPages = 64
	}
	dk := &Disk{
		store:      pagefile.NewStore(pool, poolPages),
		d:          d,
		numObjects: g.NumObjects,
		numTicks:   g.NumTicks,
		blobOf:     make([]int32, len(g.Nodes)),
		pool:       newDFSPool(),
	}
	enc := pagefile.NewEncoder(pagefile.PageSize)
	var pending []dn.NodeID
	flush := func() {
		if len(pending) == 0 {
			return
		}
		enc.Reset()
		enc.Uint32(uint32(len(pending)))
		for _, id := range pending {
			enc.Int32(int32(id))
			for pass := 0; pass < d; pass++ {
				lo, hi := labels.Label(pass, id)
				enc.Int32(lo)
				enc.Int32(hi)
			}
			out := g.Out(id)
			enc.Uint32(uint32(len(out)))
			for _, c := range out {
				enc.Int32(int32(c))
			}
		}
		dk.blobRefs = append(dk.blobRefs, dk.store.AppendBlob(enc.Bytes()))
		pending = pending[:0]
	}
	// Pack vertices into page-sized blobs in generation order.
	budget := 0
	for id := range g.Nodes {
		recSize := 4 + 8*d + 4 + 4*len(g.Out(dn.NodeID(id)))
		if budget+recSize > pagefile.PageSize-64 && len(pending) > 0 {
			flush()
			budget = 0
		}
		dk.blobOf[id] = int32(len(dk.blobRefs))
		pending = append(pending, dn.NodeID(id))
		budget += recSize
	}
	flush()

	// Per-object run directory, as in reachgraph: (end, node) pairs.
	dk.dirRefs = make([]pagefile.BlobRef, g.NumObjects)
	for o := 0; o < g.NumObjects; o++ {
		runs := g.RunsOf(trajectory.ObjectID(o))
		enc.Reset()
		enc.Uint32(uint32(len(runs)))
		for _, id := range runs {
			enc.Int32(int32(g.Nodes[id].End))
			enc.Int32(int32(id))
		}
		dk.dirRefs[o] = dk.store.AppendBlob(enc.Bytes())
	}
	return dk, nil
}

// Counters returns the store's cumulative I/O totals; per-query accountants
// passed to ReachCounted sum to consecutive Counters differences.
func (dk *Disk) Counters() pagefile.Stats { return dk.store.Counters() }

// ResetCounters zeroes the cumulative totals.
func (dk *Disk) ResetCounters() { dk.store.ResetCounters() }

// Store exposes the simulated disk.
func (dk *Disk) Store() *pagefile.Store { return dk.store }

// findVertex locates object o's vertex at tick t via the on-disk directory.
func (dk *Disk) findVertex(o trajectory.ObjectID, t trajectory.Tick, acct *pagefile.Stats) (dn.NodeID, error) {
	data, err := pagefile.Whole(dk.store.ReadBlob(dk.dirRefs[o], acct))
	if err != nil {
		return dn.Invalid, fmt.Errorf("grail: directory of object %d: %w", o, err)
	}
	dec := pagefile.NewDecoder(data)
	n := int(dec.Uint32())
	type run struct {
		end  trajectory.Tick
		node dn.NodeID
	}
	runs := make([]run, n)
	for i := range runs {
		runs[i] = run{trajectory.Tick(dec.Int32()), dn.NodeID(dec.Int32())}
	}
	if err := dec.Err(); err != nil {
		return dn.Invalid, err
	}
	i := sort.Search(n, func(i int) bool { return runs[i].end >= t })
	if i == n {
		return dn.Invalid, fmt.Errorf("grail: object %d has no run at tick %d", o, t)
	}
	return runs[i].node, nil
}

// fetch decodes the record of vertex id, reading its blob if the per-query
// cache misses. Every decoded vertex ID is validated against the DAG's ID
// space: IDs index the blob catalogue and the epoch-stamped visited set,
// so corrupt pages must surface as errors, never as panics.
func (dk *Disk) fetch(id dn.NodeID, cache map[dn.NodeID]*diskVertex, acct *pagefile.Stats) (*diskVertex, error) {
	if v, ok := cache[id]; ok {
		return v, nil
	}
	if id < 0 || int(id) >= len(dk.blobOf) {
		return nil, fmt.Errorf("grail: vertex %d outside [0, %d)", id, len(dk.blobOf))
	}
	data, err := pagefile.Whole(dk.store.ReadBlob(dk.blobRefs[dk.blobOf[id]], acct))
	if err != nil {
		return nil, fmt.Errorf("grail: blob of vertex %d: %w", id, err)
	}
	dec := pagefile.NewDecoder(data)
	n := dec.Uint32()
	for i := uint32(0); i < n && dec.Err() == nil; i++ {
		vid := dn.NodeID(dec.Int32())
		if vid < 0 || int(vid) >= len(dk.blobOf) {
			return nil, fmt.Errorf("grail: blob names vertex %d outside [0, %d)", vid, len(dk.blobOf))
		}
		v := &diskVertex{lo: make([]int32, dk.d), hi: make([]int32, dk.d)}
		for pass := 0; pass < dk.d; pass++ {
			v.lo[pass] = dec.Int32()
			v.hi[pass] = dec.Int32()
		}
		ne := dec.Uint32()
		if dec.Err() == nil && uint64(ne) > uint64(dec.Remaining()/4) {
			dec.Failf("grail: implausible edge count %d with %d bytes left", ne, dec.Remaining())
		}
		if dec.Err() != nil {
			break
		}
		v.out = make([]dn.NodeID, ne)
		for k := range v.out {
			c := dn.NodeID(dec.Int32())
			if c < 0 || int(c) >= len(dk.blobOf) {
				return nil, fmt.Errorf("grail: blob names vertex %d outside [0, %d)", c, len(dk.blobOf))
			}
			v.out[k] = c
		}
		cache[vid] = v
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	v, ok := cache[id]
	if !ok {
		return nil, fmt.Errorf("grail: vertex %d missing from its blob", id)
	}
	return v, nil
}

// contains reports label containment u ⊇ v on decoded records.
func contains(u, v *diskVertex) bool {
	for i := range u.lo {
		if v.lo[i] < u.lo[i] || v.hi[i] > u.hi[i] {
			return false
		}
	}
	return true
}

// ReachCounted answers q with the disk-resident label-pruned DFS and
// returns the number of vertices it visited. Page reads are charged to acct (which may be nil) in addition to the
// cumulative counters; all traversal state is per-query. The context is
// observed inside the DFS loop.
func (dk *Disk) ReachCounted(ctx context.Context, q queries.Query, acct *pagefile.Stats) (bool, int, error) {
	u, v, done, ans, err := dk.entry(q, acct)
	if done || err != nil {
		return ans, 0, err
	}
	cache := make(map[dn.NodeID]*diskVertex, 64)
	uRec, err := dk.fetch(u, cache, acct)
	if err != nil {
		return false, 0, err
	}
	vRec, err := dk.fetch(v, cache, acct)
	if err != nil {
		return false, 0, err
	}
	if !contains(uRec, vRec) {
		return false, 0, nil
	}
	sc := dk.pool.Get()
	defer dk.pool.Put(sc)
	sc.reset(len(dk.blobOf))
	sc.visited.Visit(int(u))
	sc.visits = 1
	sc.stack.PushBack(u)
	for sc.stack.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return false, sc.visits, err
		}
		cur, _ := sc.stack.PopBack()
		if cur == v {
			return true, sc.visits, nil
		}
		rec, err := dk.fetch(cur, cache, acct)
		if err != nil {
			return false, sc.visits, err
		}
		for _, c := range rec.out {
			if sc.visited.Has(int(c)) {
				continue
			}
			sc.visited.Visit(int(c))
			sc.visits++
			// Pruning requires the child's labels — a disk read; the
			// saving is in never descending below a pruned child.
			cRec, err := dk.fetch(c, cache, acct)
			if err != nil {
				return false, sc.visits, err
			}
			if contains(cRec, vRec) {
				sc.stack.PushBack(c)
			}
		}
	}
	return false, sc.visits, nil
}

// entry mirrors entryVertices using the on-disk directory.
func (dk *Disk) entry(q queries.Query, acct *pagefile.Stats) (u, v dn.NodeID, done, ans bool, err error) {
	if int(q.Src) < 0 || int(q.Src) >= dk.numObjects ||
		int(q.Dst) < 0 || int(q.Dst) >= dk.numObjects {
		return 0, 0, true, false, fmt.Errorf("grail: query objects outside [0, %d)", dk.numObjects)
	}
	iv := q.Interval.Intersect(contact.Interval{Lo: 0, Hi: trajectory.Tick(dk.numTicks - 1)})
	if iv.Len() == 0 {
		return 0, 0, true, false, nil
	}
	if q.Src == q.Dst {
		return 0, 0, true, true, nil
	}
	if u, err = dk.findVertex(q.Src, iv.Lo, acct); err != nil {
		return 0, 0, true, false, err
	}
	if v, err = dk.findVertex(q.Dst, iv.Hi, acct); err != nil {
		return 0, 0, true, false, err
	}
	if u == v {
		return 0, 0, true, true, nil
	}
	return u, v, false, false, nil
}
