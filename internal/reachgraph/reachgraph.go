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
// The index numbers the vertices afresh, partition by partition in that
// order and each partition's members by ascending graph ID, so a partition
// is one contiguous range of IDs and a vertex's partition is a function of
// its ID: an edge stores its target's ID alone, and a traversal never needs
// a per-vertex map. The only in-memory state is the partition catalogue —
// one BlobRef and the first ID of each partition, plus the partition of
// every 16th ID, so that finding a vertex's partition scans at most 16
// range starts (partOf) — mirroring the paper's in-memory hash table of Ht
// locations. A per-object run directory on disk implements FindVertex —
// locating the vertex of object o at instant t — as one blob read and a
// search in place (runs.go): the directory lists the object's runs by
// ascending end, each group of 32 closed by a fixed-width anchor, so a
// lookup binary-searches the anchors and decodes one group of at most 32
// entries, however many runs the object has.
//
// A traversal pays for the vertices it visits, not for the partitions it
// buffers. A partition blob opens with a positional directory, searchable
// where it lies (directory.go): the k-th record is that of the partition's
// k-th ID, so buffering a partition is one blob read and a header check,
// and finding a vertex in it one anchor and at most 16 record lengths.
// The records carry no id of their own — their position names them — and
// are decoded lazily (record.go): header and members on the first visit,
// each of the four edge sections only when a traversal's direction asks
// for it, all into an arena that lives for one query. Decoded records
// follow the buffer pool, one copy per index: a query publishes what it
// decoded to the index's shared table (directory.go), and later queries
// take records from it for as long as the pool lets no page go
// (pagefile.BufferPool.Generation), so an index that fits its pool — one
// shard of a spatially cut dataset — is decoded once, and an index that
// does not is decoded afresh by every query; what is kept is bounded by
// the pool's page budget, not by a setting of its own. Partition reads are
// never skipped: every query reads each partition it takes a record from,
// and verifies the pages of it that it interprets — the header, the
// anchors, the entry groups it scans and the records it takes, shared ones
// included — so the bytes a query interprets were verified by that query's
// own read, and the buffer pool is the only cache the page counts depend
// on. A partition within one page is verified whole by the read; of a
// longer one, a query checksums the few pages it decodes, not the extent.
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
// and departure answer is read off. Index.ReachStrategyCounted is the
// single-source form of the former. Only what a record is differs: on disk
// a record decoded into the query's arena, in memory a view of the graph's
// own lists (mem.go), so Mem keeps no copy of the graph beside the graph.
package reachgraph

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"streach/internal/contact"
	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/par"
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

	// The partition catalogue (in memory, as in §5.1.3): partition p's blob
	// is partRefs[p] and holds the vertices [first[p], first[p+1]); the
	// partition of vertex i·bucketIDs is bucket[i].
	partRefs []pagefile.BlobRef
	first    []int32
	bucket   []int32
	dirRefs  []pagefile.BlobRef // per-object run directory blobs

	pool *visit.Pool[scratch] // per-query traversal scratch

	decoded   atomic.Pointer[recTable] // the one decoded copy of its records; nil until a query publishes
	publishMu sync.Mutex               // serializes publication into decoded
}

// Build constructs the ReachGraph of the reduced graph g. Long edges at
// params.Resolutions are computed if g does not already carry them.
// Partitions and run directories are encoded in parallel and appended to
// the store in one order, so the index does not depend on the number of
// workers.
func Build(g *dn.Graph, params Params) (*Index, error) { return build(g, params, par.Workers()) }

// Encoding grains: a block encodes partitions holding at least
// encodeGrain vertices, or the run directories of dirGrain objects.
const (
	encodeGrain = 4096
	dirGrain    = 256
)

func build(g *dn.Graph, params Params, workers int) (*Index, error) {
	params.applyDefaults()
	if len(g.Nodes) == 0 {
		return nil, errors.New("reachgraph: empty graph")
	}
	if !slices.Equal(g.Resolutions, params.Resolutions) {
		if err := g.Augment(params.Resolutions); err != nil {
			return nil, err
		}
	}
	ix := &Index{
		params:     params,
		store:      pagefile.NewStore(params.Pool, params.PoolPages),
		numObjects: g.NumObjects,
		numTicks:   g.NumTicks,
		numNodes:   len(g.Nodes),
		pool:       newScratchPool(),
	}

	_, parts := partition(g, params.PartitionDepth)
	num := number(len(g.Nodes), parts)
	ix.first, ix.bucket = num.first, buckets(num.first)

	// Blocks of partitions in generation order, then blocks of objects'
	// run directories (runs.go): each block encodes its blobs into one
	// buffer, and the blobs go onto the store in block order.
	var partBlocks []int // first partition of each block, then len(parts)
	for i, size := 0, 0; i < len(parts); i++ {
		if size == 0 {
			partBlocks = append(partBlocks, i)
		}
		if size += len(parts[i]); size >= encodeGrain {
			size = 0
		}
	}
	partBlocks = append(partBlocks, len(parts))
	numPartBlocks := len(partBlocks) - 1
	dirBlocks := par.Split(g.NumObjects, dirGrain)
	writers := make([]*blobWriter, workers)
	encoded := make([]*blobBlock, numPartBlocks+dirBlocks)
	var spare sync.Pool // blocks whose blobs are on the store, for reuse
	ix.partRefs = make([]pagefile.BlobRef, 0, len(parts))
	ix.dirRefs = make([]pagefile.BlobRef, 0, g.NumObjects)
	par.Blocks(workers, len(encoded), func(w, i int) {
		if writers[w] == nil {
			writers[w] = &blobWriter{parts: newPartitionWriter(), runs: newRunWriter()}
		}
		bw := writers[w]
		blk, _ := spare.Get().(*blobBlock)
		if blk == nil {
			blk = new(blobBlock)
		}
		blk.data, blk.ends = blk.data[:0], blk.ends[:0]
		if i < numPartBlocks {
			for _, members := range parts[partBlocks[i]:partBlocks[i+1]] {
				blk.add(bw.parts.encode(g, members, num.of))
			}
		} else {
			k := i - numPartBlocks
			for o := k * g.NumObjects / dirBlocks; o < (k+1)*g.NumObjects/dirBlocks; o++ {
				blk.add(bw.runs.encode(g, g.RunsOf(trajectory.ObjectID(o)), num.of))
			}
		}
		encoded[i] = blk
	}, func(i int) {
		refs := &ix.partRefs
		if i >= numPartBlocks {
			refs = &ix.dirRefs
		}
		blk, from := encoded[i], 0
		for _, end := range blk.ends {
			*refs = append(*refs, ix.store.AppendBlob(blk.data[from:end]))
			from = end
		}
		encoded[i] = nil
		spare.Put(blk)
	})
	return ix, nil
}

// blobWriter is one worker's encoders.
type blobWriter struct {
	parts *partitionWriter
	runs  *runWriter
}

// blobBlock holds consecutive encoded blobs: the k-th is
// data[ends[k-1]:ends[k]], the first starting at 0.
type blobBlock struct {
	data []byte
	ends []int
}

func (b *blobBlock) add(blob []byte) {
	b.data = append(b.data, blob...)
	b.ends = append(b.ends, len(b.data))
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
			for _, v := range g.Out(it.id) {
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

// numbering is the disk index's own vertex numbering: partition by
// partition in generation order, each partition's members in ascending
// graph ID, so that partition p holds the index IDs [first[p], first[p+1]).
type numbering struct {
	first []int32     // one per partition, then the number of vertices
	of    []dn.NodeID // graph ID → index ID; a build-time table only
}

// number sorts the member lists of parts, which cover the n vertices of a
// graph, and numbers the vertices in that order.
func number(n int, parts [][]dn.NodeID) numbering {
	num := numbering{first: make([]int32, 0, len(parts)+1), of: make([]dn.NodeID, n)}
	next := dn.NodeID(0)
	for _, members := range parts {
		num.first = append(num.first, int32(next))
		slices.Sort(members)
		for _, v := range members {
			num.of[v] = next
			next++
		}
	}
	num.first = append(num.first, int32(next))
	return num
}

// bucketIDs is the stride of the catalogue's lookup table: partOf scans at
// most this many range starts.
const bucketIDs = 16

// buckets returns the lookup table over the partition ranges that first
// delimits: the partition holding each bucketIDs-th ID.
func buckets(first []int32) []int32 {
	n := first[len(first)-1]
	out := make([]int32, (n+bucketIDs-1)/bucketIDs)
	p := int32(0)
	for i := range out {
		for first[p+1] <= int32(i)*bucketIDs {
			p++
		}
		out[i] = p
	}
	return out
}

// partOf returns the partition holding vertex id, which the caller has
// checked lies in [0, numNodes). Every partition holds a vertex, so the
// bucketIDs IDs from the bucket's own to id are in at most bucketIDs
// partitions.
func (ix *Index) partOf(id dn.NodeID) int32 {
	p := ix.bucket[id/bucketIDs]
	for ix.first[p+1] <= int32(id) {
		p++
	}
	return p
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

// findVertex implements FindVertex(Ht(o), o, t): it reads o's run
// directory — one blob read — and searches it for the vertex of the run
// covering t (findRun). It allocates nothing.
func (ix *Index) findVertex(o trajectory.ObjectID, t trajectory.Tick, acct *pagefile.Stats) (dn.NodeID, error) {
	if int(o) < 0 || int(o) >= ix.numObjects {
		return dn.Invalid, fmt.Errorf("reachgraph: object %d outside [0, %d)", o, ix.numObjects)
	}
	data, err := pagefile.Whole(ix.store.ReadBlob(ix.dirRefs[o], acct))
	if err != nil {
		return dn.Invalid, fmt.Errorf("reachgraph: directory of object %d: %w", o, err)
	}
	node, err := findRun(data, t)
	switch {
	case err != nil:
		return dn.Invalid, fmt.Errorf("reachgraph: directory of object %d: %w", o, err)
	case node < 0 || node >= int64(ix.numNodes):
		return dn.Invalid, fmt.Errorf("reachgraph: directory of object %d names vertex %d outside [0, %d)", o, node, ix.numNodes)
	}
	return dn.NodeID(node), nil
}

// locate is findVertex charged to the query's accountant.
func (c *cursor) locate(o trajectory.ObjectID, t trajectory.Tick) (dn.NodeID, error) {
	return c.ix.findVertex(o, t, c.acct)
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
// returns it with ix.end.
func (ix *Index) begin(acct *pagefile.Stats) *scratch {
	sc := ix.pool.Get()
	sc.reset(ix.numNodes, ix.numObjects)
	sc.cur.begin(ix, acct)
	return sc
}

// end closes the query of sc, which ended with err, and returns sc to the
// pool.
func (ix *Index) end(sc *scratch, err error) {
	sc.cur.end(err)
	ix.pool.Put(sc)
}

// ReachStrategyCounted answers the single-source query q with strategy s and
// returns the number of vertex visits the traversal performed. Page reads
// are charged to acct (which may be nil) in addition to the cumulative
// counters; one accountant per query keeps parallel evaluation exact. The
// context is observed inside the expansion loops, so a cancelled query
// returns ctx.Err() promptly.
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
	ok, err := reachFrom(ctx, &sc.cur, sc, s, seeds, dst, iv, ix.params.Resolutions, ix.numTicks)
	visits := sc.visits
	ix.end(sc, err)
	return ok, visits, err
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
//
// done, when non-nil, prunes a forward sweep: it maps an object to a tick
// it was already expanded from over a network holding all of its contacts,
// and the sweep neither records nor expands a run whose members all have a
// done tick at or below its entry tick (see sweep). The shard planner
// passes its owners' expansions; every other caller passes nil.
func (ix *Index) AppendProfile(ctx context.Context, out []queries.ProfileEntry, seeds []queries.SeedState, iv contact.Interval, dir queries.Direction, done *visit.Ticks, acct *pagefile.Stats) ([]queries.ProfileEntry, int, error) {
	iv = ix.clampInterval(iv)
	if iv.Len() == 0 {
		return out, 0, nil
	}
	sc := ix.begin(acct)
	out, err := appendProfile(ctx, &sc.cur, sc, out, seeds, iv, dir, done)
	visits := sc.visits
	ix.end(sc, err)
	return out, visits, err
}
