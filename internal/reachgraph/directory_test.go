package reachgraph

import (
	"bytes"
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"

	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/stjoin"
	"streach/internal/trajectory"
)

// toggleGraph is a three-object contact history whose components change at
// almost every instant (objects 0 and 1 meet on even ticks, 1 and 2 on every
// ninth), so DN1 is a long braid of short runs and the partition sizes
// follow the partition depth closely: depth 9 yields partitions of 1, 15,
// 16 and 17 vertices in one build — the sizes around an anchor boundary —
// and depth 60 one of more than 64.
func toggleGraph() *dn.Graph {
	b := dn.NewBuilder(3)
	for tk := 0; tk < 200; tk++ {
		var pairs []stjoin.Pair
		if tk%2 == 0 {
			pairs = append(pairs, stjoin.MakePair(0, 1))
		}
		if tk%9 == 0 {
			pairs = append(pairs, stjoin.MakePair(1, 2))
		}
		b.AddInstant(pairs)
	}
	return b.Graph()
}

// withinBlob reports whether rec, a sub-slice of blob's backing array, ends
// inside blob: views of store memory have spare capacity behind them, so a
// slice expression alone does not stop a record from running into the next
// blob.
func withinBlob(blob, rec []byte) bool {
	return cap(blob)-cap(rec)+len(rec) <= len(blob)
}

// wantEdges is what a decoded edge list must equal.
func wantEdges(ids []dn.NodeID, partOf []int32) []edge {
	out := make([]edge, len(ids))
	for i, v := range ids {
		out[i] = edge{node: v, part: partOf[v]}
	}
	return out
}

func wantLongs(g *dn.Graph, partOf []int32, edgesOf func(L int) []dn.NodeID) []levelEdges {
	var out []levelEdges
	for _, L := range g.Resolutions {
		if es := edgesOf(L); len(es) > 0 {
			out = append(out, levelEdges{level: L, edges: wantEdges(es, partOf)})
		}
	}
	return out
}

// sameRecord compares the decoded content of two records; empty and nil
// lists are the same list.
func sameRecord(a, b *vertexRec) bool {
	sameLongs := func(x, y []levelEdges) bool {
		return slices.EqualFunc(x, y, func(p, q levelEdges) bool {
			return p.level == q.level && slices.Equal(p.edges, q.edges)
		})
	}
	return a.id == b.id && a.start == b.start && a.end == b.end &&
		slices.Equal(a.members, b.members) &&
		slices.Equal(a.out, b.out) && slices.Equal(a.in, b.in) &&
		sameLongs(a.longOut, b.longOut) && sameLongs(a.longIn, b.longIn)
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			out = append(out, slices.Insert(slices.Clone(p), at, n-1))
		}
	}
	return out
}

// TestDirectoryAndLazyRecords is the property test of the disk read path,
// on built indexes: every vertex is found through its own
// partition at exactly the bytes Build encoded for it; ids the partition
// does not hold — below its first, between neighbours, above its last —
// are reported missing, never answered with a neighbour's record; a lookup
// through the wrong partition is an error; and decoding the four edge
// sections lazily, in every order, yields the record one eager decode
// does, which is the graph's.
func TestDirectoryAndLazyRecords(t *testing.T) {
	orders := permutations(numSections)
	sizes := map[int]bool{}
	for _, depth := range []int{9, 60} {
		g := toggleGraph()
		// No pool: a cursor then keeps no record from one begin to the
		// next, and every lookup below decodes from the blob.
		ix, err := Build(g, Params{PartitionDepth: depth, PoolPages: -1})
		if err != nil {
			t.Fatal(err)
		}
		partOf, parts := partition(g, depth)
		enc := pagefile.NewEncoder(256)
		for pid, members := range parts {
			sizes[len(members)] = true
			slices.Sort(members)
			sc := ix.begin(nil)
			c := &sc.cur
			if err := c.loadPartition(int32(pid)); err != nil {
				t.Fatal(err)
			}
			pv := &c.parts[pid]
			if pv.n != len(members) {
				t.Fatalf("depth %d: partition %d lists %d vertices, want %d", depth, pid, pv.n, len(members))
			}
			blob, err := ix.store.ReadBlob(ix.partRefs[pid], nil)
			if err != nil {
				t.Fatal(err)
			}
			recOff := 0
			for i, id := range members {
				enc.Reset()
				encodeVertex(enc, g, id, partOf)
				rec, err := pv.find(id)
				if err != nil {
					t.Fatalf("depth %d: vertex %d in partition %d of %d: %v", depth, id, pid, len(members), err)
				}
				if !bytes.Equal(rec, enc.Bytes()) || !withinBlob(blob, rec) {
					t.Fatalf("depth %d: vertex %d: directory leads to other bytes than Build encoded", depth, id)
				}
				if at := cap(pv.records) - cap(rec); at != recOff {
					t.Fatalf("depth %d: vertex %d: record at offset %d of the record area, want %d", depth, id, at, recOff)
				}
				recOff += len(rec)

				// The ids around this one that the partition does not hold.
				absent := []dn.NodeID{id - 1, id + 1}
				if i > 0 && members[i-1] == id-1 {
					absent = absent[1:]
				}
				if i+1 < len(members) && members[i+1] == id+1 {
					absent = absent[:len(absent)-1]
				}
				for _, a := range absent {
					if rec, err := pv.find(a); err != errNotListed || rec != nil {
						t.Fatalf("depth %d: partition %d answers for vertex %d, which it does not hold: %v", depth, pid, a, err)
					}
				}
			}
			if recOff != len(pv.records) {
				t.Fatalf("depth %d: partition %d: records cover %d of %d bytes", depth, pid, recOff, len(pv.records))
			}
			ix.pool.Put(sc)
		}

		for id := range g.Nodes {
			id := dn.NodeID(id)
			nd := &g.Nodes[id]
			want := &vertexRec{
				id: id, start: nd.Start, end: nd.End, members: nd.Members,
				out: wantEdges(nd.Out, partOf), in: wantEdges(nd.In, partOf),
				longOut: wantLongs(g, partOf, func(L int) []dn.NodeID { return g.LongOut(id, L) }),
				longIn:  wantLongs(g, partOf, func(L int) []dn.NodeID { return g.LongIn(id, L) }),
			}
			sc := ix.begin(nil)
			eager, err := sc.cur.vertex(id, partOf[id])
			if err == nil {
				err = sc.cur.need(eager, secOut|secIn|secLongOut|secLongIn)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !sameRecord(eager, want) {
				t.Fatalf("depth %d: vertex %d decodes to\n%+v, the graph says\n%+v", depth, id, *eager, *want)
			}
			// A second cursor decodes one section at a time; both stay
			// live so the comparison reads two independent arenas.
			for _, order := range orders {
				lazy := ix.begin(nil)
				v, err := lazy.cur.vertex(id, partOf[id])
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range order {
					if err := lazy.cur.need(v, 1<<s); err != nil {
						t.Fatalf("vertex %d, order %v: %v", id, order, err)
					}
				}
				if !sameRecord(v, eager) {
					t.Fatalf("depth %d: vertex %d decoded in order %v differs from the eager decode", depth, id, order)
				}
				ix.pool.Put(lazy)
			}
			ix.pool.Put(sc)

			// Asked through another partition the vertex is an error,
			// and the failed lookup leaves nothing behind.
			if len(parts) == 1 {
				continue
			}
			wrong := (partOf[id] + 1) % int32(len(parts))
			sc = ix.begin(nil)
			if v, err := sc.cur.vertex(id, wrong); !errors.Is(err, errNotListed) || v != nil {
				t.Fatalf("depth %d: vertex %d through partition %d (its own is %d): got %v, %v", depth, id, wrong, partOf[id], v, err)
			}
			if _, ok := sc.cur.verts.Get(int(id)); ok {
				t.Fatalf("failed lookup of vertex %d registered a record", id)
			}
			ix.pool.Put(sc)
		}
	}
	for _, n := range []int{1, anchorStride - 1, anchorStride, anchorStride + 1} {
		if !sizes[n] {
			t.Errorf("no partition of %d vertices in the fixtures (sizes seen: %v)", n, sizes)
		}
	}
	if big := slices.Max(slices.Collect(maps.Keys(sizes))); big <= 4*anchorStride {
		t.Errorf("largest fixture partition has %d vertices, want more than %d", big, 4*anchorStride)
	}
}

// blobIndex is an index whose partitions are the given blobs, written as
// they are (with a valid checksum): the way forged and fuzzed partitions
// reach the read path.
func blobIndex(numNodes, numObjects int, blobs ...[]byte) *Index {
	ix := &Index{
		store:      pagefile.NewStore(-1),
		numNodes:   numNodes,
		numObjects: numObjects,
		numTicks:   1,
		pool:       newScratchPool(),
	}
	for _, b := range blobs {
		ix.partRefs = append(ix.partRefs, ix.store.AppendBlob(b))
	}
	return ix
}

// onePartition forges the blob of a partition holding the single vertex id
// with the given record bytes.
func onePartition(id dn.NodeID, rec []byte) []byte {
	entry := pagefile.NewEncoder(8)
	entry.Uvarint(uint64(id))
	entry.Uvarint(uint64(len(rec)))
	enc := pagefile.NewEncoder(64)
	enc.Format()
	enc.Uvarint(1)
	enc.Uvarint(uint64(entry.Len()))
	enc.Raw(entry.Bytes())
	enc.Raw(rec)
	return enc.Bytes()
}

// TestForgedCountsReserveNothing pins the count checks the arena makes
// matter: slab space is reserved from a record's element counts before the
// elements are decoded, so a correctly checksummed record that claims more
// edges, levels or members than its bytes could hold at the smallest
// encoding must fail to decode without the slabs growing — both for absurd
// counts and for the smallest count that cannot fit.
func TestForgedCountsReserveNothing(t *testing.T) {
	const body = 96 // zero bytes behind the forged count: valid deltas, if read
	// Bytes of the smallest member, edge (node + partition) and level
	// (resolution + empty list) — spelled out, not taken from the
	// decoder's constants, which are what is under test.
	const minMember, minEdge, minLevel = 1, 2, 2
	cases := []struct {
		section int    // -1: the member posting, which vertex itself decodes
		what    string // the element the error names
		per     int    // smallest encoding of one element
	}{
		{-1, "member", minMember},
		{0, "edge", minEdge},
		{1, "edge", minEdge},
		{2, "level", minLevel},
		{3, "level", minLevel},
	}
	for _, tc := range cases {
		for _, forged := range []uint64{1<<32 - 1, body/uint64(tc.per) + 1} {
			enc := pagefile.NewEncoder(256)
			enc.Uvarint(0) // start
			enc.Uvarint(0) // span
			// Honest empty lists in front of the forged one: the member
			// posting, then the sections before tc.section.
			for i := -1; i < tc.section; i++ {
				enc.Uvarint(0)
			}
			enc.Uvarint(forged)
			enc.Raw(make([]byte, body))

			ix := blobIndex(8, 8, onePartition(5, enc.Bytes()))
			sc := ix.begin(nil)
			v, err := sc.cur.vertex(5, 0)
			if err == nil && tc.section >= 0 {
				err = sc.cur.need(v, 1<<tc.section)
			}
			if err == nil || !strings.Contains(err.Error(), "implausible "+tc.what+" count") {
				t.Errorf("section %d: %s count %d over %d bytes: err = %v, want an implausible-count error", tc.section, tc.what, forged, body, err)
			}
			a := &sc.cur.arena
			if n := cap(a.members.buf) + cap(a.edges.buf) + cap(a.levels.buf); n != 0 {
				t.Errorf("section %d: %s count %d: the failed decode reserved %d slab elements", tc.section, tc.what, forged, n)
			}
			ix.pool.Put(sc)
		}
	}
}

// TestSlabKeepsEarlierSlicesAndCapacity pins the two properties the arena
// rests on: growing a slab does not disturb what it handed out before, and
// a reset slab serves the same demand again without allocating.
func TestSlabKeepsEarlierSlicesAndCapacity(t *testing.T) {
	var s slab[trajectory.ObjectID]
	var handed [][]trajectory.ObjectID
	for i := 0; i < 300; i++ {
		part := s.alloc(i % 7)
		for j := range part {
			part[j] = trajectory.ObjectID(i)
		}
		handed = append(handed, part)
	}
	for i, part := range handed {
		if len(part) != i%7 || cap(part) != len(part) {
			t.Fatalf("slice %d: len %d cap %d, want both %d", i, len(part), cap(part), i%7)
		}
		for _, v := range part {
			if v != trajectory.ObjectID(i) {
				t.Fatalf("slice %d was overwritten by a later alloc", i)
			}
		}
	}
	replay := func() {
		s.reset()
		for i := 0; i < 300; i++ {
			s.alloc(i % 7)
		}
	}
	replay() // the last array may hold less than the whole demand once
	replay()
	if allocs := testing.AllocsPerRun(10, replay); allocs != 0 {
		t.Errorf("a warm slab allocates %.1f times per replay", allocs)
	}
}

// TestCursorKeepsRecordsWhileResident pins what a cursor carries from one
// query to the next. While the pool lets no page go, the records stay —
// same pointers, nothing decoded again — but every query still reads and
// checksums each partition it takes a record of, so its page counts are
// those of a cursor that kept nothing. A displacement, DropCache or a
// damaged page empties it; so does having no pool at all, and so does
// holding more than keepRecords.
func TestCursorKeepsRecordsWhileResident(t *testing.T) {
	f := newFixture(t, 30, 200, 17)
	if n := len(f.g.Nodes); n > keepRecords {
		t.Fatalf("fixture has %d vertices; the test wants at most %d", n, keepRecords)
	}
	partOf, parts := partition(f.g, 32)
	if len(parts) < 3 {
		t.Fatalf("fixture has %d partitions, the test wants a few", len(parts))
	}
	all := secOut | secIn | secLongOut | secLongIn
	// readAll looks up every vertex and decodes the sections in want,
	// returning the records and the pages the cursor touched for them.
	readAll := func(c *cursor, ix *Index, want uint8) ([]*vertexRec, int64) {
		t.Helper()
		var acct pagefile.Stats
		c.begin(ix, &acct)
		recs := make([]*vertexRec, len(f.g.Nodes))
		for id := range f.g.Nodes {
			v, err := c.vertex(dn.NodeID(id), partOf[id])
			if err == nil {
				err = c.need(v, want)
			}
			if err != nil {
				t.Fatal(err)
			}
			recs[id] = v
		}
		return recs, acct.BufferHits + acct.RandomReads + acct.SequentialReads
	}

	ix, err := Build(f.g, Params{PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if n := ix.store.NumPages(); n > 4096 {
		t.Fatalf("index has %d pages; the test wants it resident", n)
	}
	c := &cursor{}
	first, pages := readAll(c, ix, secOut)
	decoded := c.held
	edges := len(c.arena.edges.buf)

	again, pagesAgain := readAll(c, ix, secOut)
	if !slices.Equal(first, again) || c.held != decoded || len(c.arena.edges.buf) != edges {
		t.Fatalf("a resident index was decoded again (%d → %d records, %d → %d edges)", decoded, c.held, edges, len(c.arena.edges.buf))
	}
	if pagesAgain != pages {
		t.Fatalf("second pass touched %d pages, the first %d: kept records must not skip partition reads", pagesAgain, pages)
	}

	// Sections a kept record lacks are still decoded on demand, and
	// agree with a cursor that starts empty.
	kept, _ := readAll(c, ix, all)
	fresh, _ := readAll(&cursor{}, ix, all)
	for id := range kept {
		if kept[id] != first[id] {
			t.Fatalf("vertex %d was decoded into a new record", id)
		}
		if !sameRecord(kept[id], fresh[id]) {
			t.Fatalf("vertex %d: kept record completed on demand differs from a fresh decode", id)
		}
	}

	// A kept record answers only through its own partition.
	c.begin(ix, nil)
	wrong := (partOf[0] + 1) % int32(len(parts))
	if v, err := c.vertex(0, wrong); !errors.Is(err, errNotListed) || v != nil {
		t.Fatalf("kept vertex 0 through partition %d (its own is %d): got %v, %v", wrong, partOf[0], v, err)
	}

	// Damage: the query that meets it fails, kept records or not.
	ref := ix.partRefs[partOf[0]]
	if err := ix.store.CorruptPage(ref.Page, int(ref.Off)+9); err != nil {
		t.Fatal(err)
	}
	c.begin(ix, nil)
	if _, err := c.vertex(0, partOf[0]); !errors.Is(err, pagefile.ErrCorruptBlob) {
		t.Fatalf("vertex of a damaged partition: err = %v, want ErrCorruptBlob", err)
	}
	if err := ix.store.CorruptPage(ref.Page, int(ref.Off)+9); err != nil { // repair
		t.Fatal(err)
	}

	readAll(c, ix, secOut)
	ix.DropCache()
	c.begin(ix, nil)
	if c.held != 0 {
		t.Fatalf("%d records survived DropCache", c.held)
	}

	// Residency is not enough once the cursor holds too much.
	big := newFixture(t, 80, 600, 17)
	bigIx, err := Build(big.g, Params{PoolPages: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	bigPartOf, _ := partition(big.g, 32)
	c = &cursor{}
	for pass := 0; pass < 2; pass++ {
		c.begin(bigIx, nil)
		if c.held != 0 {
			t.Fatalf("a cursor holding %d records, more than %d, kept them", c.held, keepRecords)
		}
		for id := 0; id <= keepRecords; id++ {
			if _, err := c.vertex(dn.NodeID(id), bigPartOf[id]); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Too small a pool displaces pages during every pass; no pool keeps
	// no page. Neither cursor carries anything over.
	for _, poolPages := range []int{1, -1} {
		ix, err := Build(f.g, Params{PoolPages: poolPages})
		if err != nil {
			t.Fatal(err)
		}
		c := &cursor{}
		readAll(c, ix, secOut)
		c.begin(ix, nil)
		if c.held != 0 {
			t.Fatalf("pool of %d pages: %d records kept across queries", poolPages, c.held)
		}
	}
}
