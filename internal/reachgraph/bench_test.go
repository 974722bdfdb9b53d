package reachgraph

import (
	"fmt"
	"testing"

	"streach/internal/dn"
)

// BenchmarkPartitionLookup finds a vertex in a buffered partition: the
// median partition of the benchmark's D1 holds one
// vertex, the largest 16 607, and a lookup must cost about the same in both.
func BenchmarkPartitionLookup(b *testing.B) {
	for _, n := range []int{1, 16, 16607} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			// Edgeless vertices at every third id: small records, gaps to miss.
			g := &dn.Graph{NumObjects: 1, NumTicks: 1, Nodes: make([]dn.Node, 3*n)}
			members := make([]dn.NodeID, n)
			for i := range members {
				members[i] = dn.NodeID(3 * i)
			}
			blob := newPartitionWriter().encode(g, members, make([]int32, len(g.Nodes)))
			pv, err := parsePartition(blob)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := members[i*7919%n]
				if _, err := pv.find(id); err != nil {
					b.Fatalf("vertex %d: %v", id, err)
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
	partOf, _ := partition(f.g, ix.params.PartitionDepth)
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
				v, err := c.vertex(id, partOf[id])
				if err == nil {
					err = c.need(v, dir.want)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
