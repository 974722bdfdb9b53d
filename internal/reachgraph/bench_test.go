package reachgraph

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"streach/internal/contact"
	"streach/internal/dn"
	"streach/internal/mobility"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/trajectory"
)

// BenchmarkBuild is what an index build costs from an extracted contact
// network: the reduction (dn.Build), then long-edge augmentation, partitioning
// and encoding (Build) at default Params, on an RWP 400 × 1000 dataset. One op
// is one build. What the build leaves on disk is reported beside its cost:
// index-pages and index-bytes/contact, the benchmark's pagefile.index_pages
// and pagefile.index_bytes_per_contact on this dataset.
func BenchmarkBuild(b *testing.B) {
	net := contact.Extract(mobility.RandomWaypoint(mobility.RWPConfig{NumObjects: 400, NumTicks: 1000, Seed: 17}))
	var ix *Index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if ix, err = Build(dn.Build(net), Params{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ix.store.NumPages()), "index-pages")
	b.ReportMetric(float64(ix.store.SizeBytes())/float64(max(net.NumContacts(), 1)), "index-bytes/contact")
}

// BenchmarkPartitionLookup finds a vertex in a buffered partition: the
// median partition of the benchmark's D1 holds one
// vertex, the largest 16 607, and a lookup must cost about the same in both.
func BenchmarkPartitionLookup(b *testing.B) {
	for _, n := range []int{1, 16, 16607} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			// Edgeless vertices: small records.
			g := &dn.Graph{NumObjects: 1, NumTicks: 1, Nodes: make([]dn.Node, n)}
			members := make([]dn.NodeID, n)
			for i := range members {
				members[i] = dn.NodeID(i)
			}
			ix := blobIndex([]int32{0, int32(n)}, 1, newPartitionWriter().encode(g, members, members))
			sc := ix.begin(nil)
			defer ix.pool.Put(sc)
			c := &sc.cur
			if err := c.loadPartition(0); err != nil {
				b.Fatal(err)
			}
			pv := &c.parts[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int32(i * 7919 % n)
				if _, _, err := pv.find(k, &c.checked); err != nil {
					b.Fatalf("record %d: %v", k, err)
				}
			}
		})
	}
}

// BenchmarkDecodeVertex reads every vertex of an index through a cursor
// whose partitions are already buffered, decoding what one traversal
// direction reads: forward BM-BFS out and long-out edges, backward the two
// in sections, a sweep the out edges alone. One op is one vertex.
func BenchmarkDecodeVertex(b *testing.B) {
	f := newFixture(b, 60, 400, 41)
	ix, err := Build(f.g, Params{})
	if err != nil {
		b.Fatal(err)
	}
	for _, dir := range []struct {
		name string
		want uint8
	}{
		{"forward", secOut | secLongOut},
		{"backward", secIn | secLongIn},
		{"sweep", secOut},
	} {
		b.Run(dir.name, func(b *testing.B) {
			sc := ix.begin(nil)
			defer ix.pool.Put(sc)
			c := &sc.cur
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := dn.NodeID(i % ix.numNodes)
				if id == 0 { // a new pass: forget the records, keep the partitions
					c.verts.Reset(ix.numNodes)
					c.arena.reset()
				}
				v, err := c.vertex(id)
				if err == nil {
					_, err = c.need(v, dir.want)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPointQuery is graph-point's query at a smaller scale: BM-BFS
// point queries of 60–240 ticks, round-robin from a fixed list, on RWP
// 400 × 1000 behind the default 64-page pool — an index many times its
// pool, so that nearly every partition read misses and every query reads
// and verifies what it interprets. One op is one query.
func BenchmarkPointQuery(b *testing.B) {
	f := newFixture(b, 400, 1000, 17)
	ix, err := Build(f.g, Params{})
	if err != nil {
		b.Fatal(err)
	}
	work := f.workload(1024, 60, 240, 17)
	ctx := context.Background()
	var acct pagefile.Stats
	for _, q := range work { // warm: scratch arrays, slabs and pool
		if _, _, err := ix.ReachStrategyCounted(ctx, q, BMBFS, &acct); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.ReachStrategyCounted(ctx, work[i%len(work)], BMBFS, &acct); err != nil {
			b.Fatal(err)
		}
	}
}

// memFixture is the memory index over BenchmarkPointQuery's dataset at the
// default resolutions, with the same query list.
func memFixture(b *testing.B) (*Mem, []queries.Query) {
	f := newFixture(b, 400, 1000, 17)
	m, err := NewMem(f.g, []int{2, 4, 8, 16, 32})
	if err != nil {
		b.Fatal(err)
	}
	return m, f.workload(1024, 60, 240, 17)
}

// BenchmarkMemPointQuery is BenchmarkPointQuery on the memory index: BM-BFS
// point queries over the graph itself, no page read. One op is one query.
func BenchmarkMemPointQuery(b *testing.B) {
	m, work := memFixture(b)
	reach := func(q queries.Query) {
		if _, err := memReach(m, q, BMBFS); err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range work { // warm the scratch
		reach(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reach(work[i%len(work)])
	}
}

// BenchmarkMemSweep is the memory index's DN1 sweep on the same queries:
// the forward profile of each query's source over its interval, what every
// set and arrival answer reads off. One op is one sweep.
func BenchmarkMemSweep(b *testing.B) {
	m, work := memFixture(b)
	ctx := context.Background()
	var out []queries.ProfileEntry
	seeds := make([]queries.SeedState, 1)
	sweep := func(q queries.Query) {
		var err error
		seeds[0].Obj = q.Src
		if out, _, err = m.AppendProfile(ctx, out[:0], seeds, q.Interval, queries.Forward, nil); err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range work {
		sweep(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(work[i%len(work)])
	}
}

// BenchmarkSweepResident is set-shard's sweep on one index: forward DN1
// sweeps of 340 ticks from four seeds of one cluster, round-robin over 256
// sources and starts, on the clustered 768 × 1024 dataset (24 clusters,
// seed 20120828) behind a pool larger than the index, so that no page ever
// leaves it. Every record a warm-up pass decoded is then in the index's
// shared table: fresh-decodes/op is the records a sweep decoded or
// completed itself, retained-MiB the heap live after the run. One op is one
// sweep.
func BenchmarkSweepResident(b *testing.B) {
	const objects, ticks, clusters, window = 768, 1024, 24, 340
	d := mobility.Clustered(mobility.ClusteredConfig{NumObjects: objects, NumTicks: ticks, NumClusters: clusters, RoamProb: 0.002, Seed: 20120828})
	ix, err := Build(dn.Build(contact.Extract(d)), Params{PoolPages: 1 << 15})
	if err != nil {
		b.Fatal(err)
	}
	if n := ix.store.NumPages(); n >= 1<<15 {
		b.Fatalf("index has %d pages; the benchmark wants it resident", n)
	}
	type sweepQuery struct {
		seeds []queries.SeedState
		iv    contact.Interval
	}
	work := make([]sweepQuery, 256)
	for i := range work {
		src := trajectory.ObjectID(i * 3 % (objects - 3*clusters)) // objects join clusters round-robin
		lo := trajectory.Tick(i * (ticks - window) / len(work))
		work[i] = sweepQuery{seedsOf(src, src+clusters, src+2*clusters, src+3*clusters), contact.Interval{Lo: lo, Hi: lo + window - 1}}
	}
	ctx := context.Background()
	var out []queries.ProfileEntry
	// sweep is AppendProfile, opened up to count what the sweep decoded.
	sweep := func(q sweepQuery) int {
		sc := ix.begin(nil)
		var err error
		out, err = appendProfile(ctx, &sc.cur, sc, out[:0], q.seeds, q.iv, queries.Forward, nil)
		fresh := sc.cur.arena.recs.Len()
		ix.end(sc, err)
		if err != nil {
			b.Fatal(err)
		}
		return fresh
	}
	for _, q := range work {
		sweep(q)
	}
	fresh := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh += sweep(work[i%len(work)])
	}
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(ix)
	b.ReportMetric(float64(fresh)/float64(b.N), "fresh-decodes/op")
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "retained-MiB")
}
