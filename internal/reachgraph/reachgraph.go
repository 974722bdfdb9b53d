// Package reachgraph implements the ReachGraph index of §5: the reduced,
// multi-resolution contact-network hyper graph HN placed on disk in
// topologically ordered partitions, with the BM-BFS bidirectional
// multi-resolution traversal of §5.2 plus the B-BFS, E-BFS and E-DFS
// comparison strategies of §6.2.2.
//
// Disk layout (§5.1.3). The vertices of HN are partitioned by iterating in
// topological order: every vertex not yet assigned roots a partition that
// absorbs the unassigned vertices within DN1-distance PartitionDepth of it
// (long edges are ignored while partitioning, preserving temporal locality).
// Each partition is serialized onto consecutive pages, in generation order.
// Vertex records embed the partition ID of every referenced neighbour, so a
// traversal never needs a global vertex→partition map: the only in-memory
// state is the partition catalogue (one BlobRef per partition), mirroring
// the paper's in-memory hash table of Ht locations. A per-object run
// directory on disk implements FindVertex — locating the vertex of object o
// at instant t — in one blob read.
//
// A traversal pays for the vertices it visits, not for the partitions it
// buffers. A partition blob opens with a directory sorted by vertex id and
// searchable where it lies (directory.go), so buffering a partition is one
// blob read and a header check, and finding a vertex in it a binary search.
// The records carry no id of their own — the directory names them — and
// are decoded lazily (record.go): header and members on the first visit,
// each of the four edge sections only when a traversal's direction asks
// for it, all into an arena that is recycled with the rest of the
// traversal scratch. Decoded records follow the buffer pool: a scratch
// keeps them from query to query for as long as the pool lets no page go
// (pagefile.BufferPool.Generation), so an index that fits its pool — one
// shard of a spatially cut dataset — is decoded once, and an index that
// does not is decoded afresh by every query; what is kept is bounded by
// the pool's page budget, not by a setting of its own. Partition reads are
// never skipped: every query reads, and checksums, each partition it
// takes a record from, so the bytes a query interprets were verified by
// that query's own ReadBlob and the buffer pool is the only cache the
// page counts depend on.
//
// Every blob begins with pagefile's layout version byte. Ticks and counts
// are stored as varints and ID postings as zig-zag deltas: what a traversal
// pays is pages, and small deltas keep partitions on few of them.
//
// Queries. There are two, on the disk Index and on the memory-resident Mem
// alike, each one body over the graphAccess interface (traverse.go):
// ReachFromCounted, the multi-source point query (BM-BFS or one of the
// comparison strategies, stopping at the destination), and AppendProfile,
// the multi-seed DN1 sweep in either time direction that every set, arrival
// and departure answer is read off. Reach, ReachStrategy and
// ReachStrategyCounted are single-source conveniences over the former.
package reachgraph

import (
	"context"
	"errors"
	"fmt"

	"streach/internal/contact"
	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/trajectory"
	"streach/internal/visit"
)

// Params configures index construction.
type Params struct {
	// PartitionDepth is dp: vertices within this DN1 distance of a
	// partition root join its partition. Defaults to 32, the paper's
	// empirical optimum.
	PartitionDepth int
	// Resolutions lists the long-edge levels, ascending powers of two.
	// Nil selects the paper's optimum {2, 4, 8, 16, 32}
	// (HN = DN1 ∪ DN2 ∪ … ∪ DN32); an explicit empty slice builds a
	// DN1-only index with no long edges.
	Resolutions []int
	// PoolPages sizes the store's private LRU buffer pool. Defaults to
	// 64; negative disables caching. Ignored when Pool is set.
	PoolPages int
	// Pool, when non-nil, is a buffer pool shared with other indexes over
	// the same dataset.
	Pool *pagefile.BufferPool
}

func (p *Params) applyDefaults() {
	if p.PartitionDepth <= 0 {
		p.PartitionDepth = 32
	}
	if p.Resolutions == nil {
		p.Resolutions = []int{2, 4, 8, 16, 32}
	}
	if p.PoolPages == 0 {
		p.PoolPages = 64
	}
}

// Index is a disk-resident ReachGraph.
type Index struct {
	params     Params
	store      *pagefile.Store
	numObjects int
	numTicks   int
	numNodes   int

	partRefs []pagefile.BlobRef // partition catalogue (in memory, as in §5.1.3)
	dirRefs  []pagefile.BlobRef // per-object run directory blobs

	pool *visit.Pool[scratch] // per-query traversal scratch
}

// Build constructs the ReachGraph of the reduced graph g. Long edges at
// params.Resolutions are computed (bidirectionally) if g does not already
// carry them.
func Build(g *dn.Graph, params Params) (*Index, error) {
	params.applyDefaults()
	if len(g.Nodes) == 0 {
		return nil, errors.New("reachgraph: empty graph")
	}
	if !sameResolutions(g.Resolutions, params.Resolutions) || !g.HasReverseLongs() {
		if err := g.AugmentBidirectional(params.Resolutions); err != nil {
			return nil, err
		}
	}
	ix := &Index{
		params:     params,
		store:      pagefile.NewStoreWith(params.Pool, params.PoolPages),
		numObjects: g.NumObjects,
		numTicks:   g.NumTicks,
		numNodes:   len(g.Nodes),
		pool:       newScratchPool(),
	}

	partOf, parts := partition(g, params.PartitionDepth)

	// Serialize partitions in generation order.
	w := newPartitionWriter()
	for _, members := range parts {
		ix.partRefs = append(ix.partRefs, ix.store.AppendBlob(w.encode(g, members, partOf)))
	}

	// Per-object run directory: triples (end, node, partition) in run
	// order — ends ascending, stored as end gaps and node/partition
	// deltas.
	enc := pagefile.NewEncoder(1 << 10)
	ix.dirRefs = make([]pagefile.BlobRef, g.NumObjects)
	for o := 0; o < g.NumObjects; o++ {
		runs := g.RunsOf(trajectory.ObjectID(o))
		enc.Reset()
		enc.Format()
		enc.Uvarint(uint64(len(runs)))
		prevEnd, prevNode, prevPart := int64(0), int64(0), int64(0)
		for _, id := range runs {
			end := int64(g.Nodes[id].End)
			enc.Uvarint(uint64(end - prevEnd)) // ends strictly ascend
			enc.Varint(int64(id) - prevNode)
			enc.Varint(int64(partOf[id]) - prevPart)
			prevEnd, prevNode, prevPart = end, int64(id), int64(partOf[id])
		}
		ix.dirRefs[o] = ix.store.AppendBlob(enc.Bytes())
	}
	return ix, nil
}

func sameResolutions(a, b []int) bool {
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

// partition assigns every vertex to a partition per §5.1.3 and returns the
// assignment plus the member lists in generation order.
func partition(g *dn.Graph, depth int) (partOf []int32, parts [][]dn.NodeID) {
	n := len(g.Nodes)
	partOf = make([]int32, n)
	for i := range partOf {
		partOf[i] = -1
	}
	type qitem struct {
		id dn.NodeID
		d  int
	}
	queue := make([]qitem, 0, 64)
	for root := 0; root < n; root++ {
		if partOf[root] >= 0 {
			continue
		}
		pid := int32(len(parts))
		members := []dn.NodeID{dn.NodeID(root)}
		partOf[root] = pid
		queue = append(queue[:0], qitem{dn.NodeID(root), 0})
		for len(queue) > 0 {
			it := queue[0]
			queue = queue[1:]
			if it.d == depth {
				continue
			}
			for _, v := range g.Nodes[it.id].Out {
				if partOf[v] >= 0 {
					continue
				}
				partOf[v] = pid
				members = append(members, v)
				queue = append(queue, qitem{v, it.d + 1})
			}
		}
		parts = append(parts, members)
	}
	return partOf, parts
}

// Store exposes the underlying simulated disk.
func (ix *Index) Store() *pagefile.Store { return ix.store }

// DropCache evicts the index's pages from the buffer pool — the cold-start
// reset between measurement runs.
func (ix *Index) DropCache() { ix.store.DropCache() }

// Counters returns the store's cumulative I/O totals; per-query accountants
// passed to the query methods sum to consecutive Counters differences.
func (ix *Index) Counters() pagefile.Stats { return ix.store.Counters() }

// ResetCounters zeroes the cumulative totals.
func (ix *Index) ResetCounters() { ix.store.ResetCounters() }

// NumPartitions returns the number of disk partitions.
func (ix *Index) NumPartitions() int { return len(ix.partRefs) }

// NumTicks returns |T| of the indexed graph.
func (ix *Index) NumTicks() int { return ix.numTicks }

// findVertex implements FindVertex(Ht(o), o, t): it reads o's run directory
// and scans for the (node, partition) of the run covering t. Runs are
// stored in ascending end order; the scan decodes at most the prefix up to
// the hit and allocates nothing.
func (ix *Index) findVertex(o trajectory.ObjectID, t trajectory.Tick, acct *pagefile.Stats) (dn.NodeID, int32, error) {
	if int(o) < 0 || int(o) >= ix.numObjects {
		return dn.Invalid, -1, fmt.Errorf("reachgraph: object %d outside [0, %d)", o, ix.numObjects)
	}
	data, err := ix.store.ReadBlob(ix.dirRefs[o], acct)
	if err != nil {
		return dn.Invalid, -1, fmt.Errorf("reachgraph: directory of object %d: %w", o, err)
	}
	dec := pagefile.NewDecoder(data)
	dec.Format()
	n := int(dec.Uvarint())
	end, node, part := int64(0), int64(0), int64(0)
	for i := 0; i < n; i++ {
		end += int64(dec.Uvarint())
		node += dec.Varint()
		part += dec.Varint()
		if dec.Err() != nil {
			break
		}
		if trajectory.Tick(end) >= t {
			if node < 0 || node >= int64(ix.numNodes) {
				return dn.Invalid, -1, fmt.Errorf("reachgraph: directory of object %d names vertex %d outside [0, %d)", o, node, ix.numNodes)
			}
			return dn.NodeID(node), int32(part), nil
		}
	}
	if err := dec.Err(); err != nil {
		return dn.Invalid, -1, fmt.Errorf("reachgraph: directory of object %d: %w", o, err)
	}
	return dn.Invalid, -1, fmt.Errorf("reachgraph: object %d has no run at tick %d", o, t)
}

// locate is findVertex charged to the query's accountant.
func (c *cursor) locate(o trajectory.ObjectID, t trajectory.Tick) (entry, error) {
	v, p, err := c.ix.findVertex(o, t, c.acct)
	return entry{v, p}, err
}

// clampInterval intersects iv with the index's time domain.
func (ix *Index) clampInterval(iv contact.Interval) contact.Interval {
	return iv.Intersect(contact.Interval{Lo: 0, Hi: trajectory.Tick(ix.numTicks - 1)})
}

func (ix *Index) validateQuery(q queries.Query) error {
	if int(q.Src) < 0 || int(q.Src) >= ix.numObjects {
		return fmt.Errorf("reachgraph: source %d outside [0, %d)", q.Src, ix.numObjects)
	}
	if int(q.Dst) < 0 || int(q.Dst) >= ix.numObjects {
		return fmt.Errorf("reachgraph: destination %d outside [0, %d)", q.Dst, ix.numObjects)
	}
	return nil
}

// begin checks a traversal scratch out of the pool, reset for one query
// against this index with its page reads charged to acct; the caller
// returns it with ix.pool.Put.
func (ix *Index) begin(acct *pagefile.Stats) *scratch {
	sc := ix.pool.Get()
	sc.reset(ix.numNodes, ix.numObjects)
	sc.cur.begin(ix, acct)
	return sc
}

// Reach answers q with the default BM-BFS strategy.
func (ix *Index) Reach(q queries.Query) (bool, error) {
	return ix.ReachStrategy(q, BMBFS)
}

// ReachStrategy answers q with the chosen traversal strategy, charging all
// page reads to the store's cumulative Counters through a query-scoped
// accountant.
func (ix *Index) ReachStrategy(q queries.Query, s Strategy) (bool, error) {
	var acct pagefile.Stats
	ok, _, err := ix.ReachStrategyCounted(context.Background(), q, s, &acct)
	return ok, err
}

// ReachStrategyCounted is ReachStrategy plus the number of vertex visits the
// traversal performed. Page reads are charged to acct (which may be nil) in
// addition to the cumulative counters; one accountant per query keeps
// parallel evaluation exact. The context is observed inside the expansion
// loops, so a cancelled query returns ctx.Err() promptly.
func (ix *Index) ReachStrategyCounted(ctx context.Context, q queries.Query, s Strategy, acct *pagefile.Stats) (bool, int, error) {
	if err := ix.validateQuery(q); err != nil {
		return false, 0, err
	}
	if q.Src == q.Dst && ix.clampInterval(q.Interval).Len() > 0 {
		return true, 0, nil
	}
	return ix.ReachFromCounted(ctx, []trajectory.ObjectID{q.Src}, q.Dst, q.Interval, s, acct)
}

// ReachFromCounted is the multi-source point query: can an item held by any
// of the seeds at the interval start reach dst by its end? It is the
// frontier entry point of the cross-segment planner — the reachable set of
// one time slab becomes the seed set of the next. The traversal is the
// strategy's usual one with every seed vertex injected into the forward
// frontier at iv.Lo.
func (ix *Index) ReachFromCounted(ctx context.Context, seeds []trajectory.ObjectID, dst trajectory.ObjectID, iv contact.Interval, s Strategy, acct *pagefile.Stats) (bool, int, error) {
	if int(dst) < 0 || int(dst) >= ix.numObjects {
		return false, 0, fmt.Errorf("reachgraph: destination %d outside [0, %d)", dst, ix.numObjects)
	}
	iv = ix.clampInterval(iv)
	if iv.Len() == 0 {
		return false, 0, nil
	}
	for _, o := range seeds {
		if o == dst {
			return true, 0, nil
		}
	}
	sc := ix.begin(acct)
	defer ix.pool.Put(sc)
	ok, err := reachFrom(ctx, &sc.cur, sc, s, seeds, dst, iv, ix.params.Resolutions, ix.numTicks)
	return ok, sc.visits, err
}

// AppendProfile appends to out the propagation profile of the seed frontier
// over iv, one entry per object met (seeds included), sorted by object ID.
// Forward, each seed begins holding the item at max(Start, iv.Lo) — seeds
// starting after iv.Hi are ignored — and Arrival is the earliest tick the
// object holds the item; it is the slab step of the cross-segment planner
// and the owner-side expansion of the scatter-gather shard planner, which
// hands a whole round of boundary discoveries to a shard as one multi-seed
// sweep. Backward, every seed holds from iv.Hi whatever its Start, and
// Arrival is the *latest* tick the object can pick the item up and still
// have it delivered to a seed by iv.Hi. Hops is always -1 and seed Hops are
// not consulted: the run DAG collapses contact components, so transfer
// counts are not derivable. The int result is the vertex-visit counter.
func (ix *Index) AppendProfile(ctx context.Context, out []queries.ProfileEntry, seeds []queries.SeedState, iv contact.Interval, dir queries.Direction, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	iv = ix.clampInterval(iv)
	if iv.Len() == 0 {
		return out, 0, nil
	}
	sc := ix.begin(acct)
	defer ix.pool.Put(sc)
	out, err := appendProfile(ctx, &sc.cur, sc, out, seeds, iv, dir)
	return out, sc.visits, err
}
