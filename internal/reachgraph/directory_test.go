package reachgraph

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"streach/internal/contact"
	"streach/internal/dn"
	"streach/internal/pagefile"
	"streach/internal/queries"
	"streach/internal/stjoin"
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
func wantEdges(ids []dn.NodeID, partOf []int32) edgeList {
	out := edgeList{nodes: ids, parts: make([]int32, len(ids))}
	for i, v := range ids {
		out.parts[i] = partOf[v]
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

// graphRecord is the record of vertex id as g holds it.
func graphRecord(g *dn.Graph, partOf []int32, id dn.NodeID) *vertexRec {
	nd := &g.Nodes[id]
	return &vertexRec{
		id: id, start: nd.Start, end: nd.End, members: g.Members(id),
		out: wantEdges(g.Out(id), partOf), in: wantEdges(g.In(id), partOf),
		longOut: wantLongs(g, partOf, func(L int) []dn.NodeID { return g.LongOut(id, L) }),
		longIn:  wantLongs(g, partOf, func(L int) []dn.NodeID { return g.LongIn(id, L) }),
	}
}

// sameRecord compares the decoded content of two records; empty and nil
// lists are the same list.
func sameRecord(a, b *vertexRec) bool {
	sameEdges := func(x, y edgeList) bool {
		return slices.Equal(x.nodes, y.nodes) && slices.Equal(x.parts, y.parts)
	}
	sameLongs := func(x, y []levelEdges) bool {
		return slices.EqualFunc(x, y, func(p, q levelEdges) bool {
			return p.level == q.level && sameEdges(p.edges, q.edges)
		})
	}
	return a.id == b.id && a.start == b.start && a.end == b.end &&
		slices.Equal(a.members, b.members) &&
		sameEdges(a.out, b.out) && sameEdges(a.in, b.in) &&
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
			if int(pv.n) != len(members) {
				t.Fatalf("depth %d: partition %d lists %d vertices, want %d", depth, pid, pv.n, len(members))
			}
			blob, err := pagefile.Whole(ix.store.ReadBlob(ix.partRefs[pid], nil))
			if err != nil {
				t.Fatal(err)
			}
			recOff := 0
			for i, id := range members {
				enc.Reset()
				encodeVertex(enc, g, id, partOf)
				rec, _, err := pv.find(id, &c.checked)
				if err != nil {
					t.Fatalf("depth %d: vertex %d in partition %d of %d: %v", depth, id, pid, len(members), err)
				}
				if !bytes.Equal(rec, enc.Bytes()) || !withinBlob(blob, rec) {
					t.Fatalf("depth %d: vertex %d: directory leads to other bytes than Build encoded", depth, id)
				}
				if at := cap(blob) - cap(rec) - int(pv.records); at != recOff {
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
					if rec, _, err := pv.find(a, &c.checked); err != errNotListed || rec != nil {
						t.Fatalf("depth %d: partition %d answers for vertex %d, which it does not hold: %v", depth, pid, a, err)
					}
				}
			}
			if recOff != len(blob)-int(pv.records) {
				t.Fatalf("depth %d: partition %d: records cover %d of %d bytes", depth, pid, recOff, len(blob)-int(pv.records))
			}
			ix.pool.Put(sc)
		}

		for id := range g.Nodes {
			id := dn.NodeID(id)
			want := graphRecord(g, partOf, id)
			sc := ix.begin(nil)
			eager, err := sc.cur.vertex(id, partOf[id])
			if err == nil {
				eager, err = sc.cur.need(eager, secOut|secIn|secLongOut|secLongIn)
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
					if v, err = lazy.cur.need(v, 1<<s); err != nil {
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
				_, err = sc.cur.need(v, 1<<tc.section)
			}
			if err == nil || !strings.Contains(err.Error(), "implausible "+tc.what+" count") {
				t.Errorf("section %d: %s count %d over %d bytes: err = %v, want an implausible-count error", tc.section, tc.what, forged, body, err)
			}
			a := &sc.cur.arena
			if n := a.members.Cap() + a.nodes.Cap() + a.parts.Cap() + a.levels.Cap(); n != 0 {
				t.Errorf("section %d: %s count %d: the failed decode reserved %d slab elements", tc.section, tc.what, forged, n)
			}
			ix.pool.Put(sc)
		}
	}
}

// TestIndexSharesRecordsWhileResident pins the one decoded copy an index
// keeps. While the pool lets no page go, a query takes the records earlier
// queries published — their lists, not copies, and nothing decoded again —
// but still reads each partition it takes a record of and verifies the
// record's pages, so its page counts are those of a query that shares
// nothing. A section a shared record lacks is decoded on a copy, and the
// shared record stays as it was. A displacement, DropCache or a damaged page
// retires the table; no pool, or a pool too small for the index, never
// fills one.
func TestIndexSharesRecordsWhileResident(t *testing.T) {
	f := newFixture(t, 30, 200, 17)
	partOf, parts := partition(f.g, 32)
	if len(parts) < 3 {
		t.Fatalf("fixture has %d partitions, the test wants a few", len(parts))
	}
	all := secOut | secIn | secLongOut | secLongIn
	// pass is what one query that reads every vertex did.
	type pass struct {
		recs            []vertexRec // as the query read them
		pages, verified int64
		decoded         int // records it decoded or completed itself
	}
	// readAll looks up every vertex through a new cursor, decodes the
	// sections in want, and ends the query, which publishes what it decoded.
	readAll := func(ix *Index, want uint8) pass {
		t.Helper()
		var acct pagefile.Stats
		c := &cursor{}
		c.begin(ix, &acct)
		p := pass{recs: make([]vertexRec, len(f.g.Nodes))}
		for id := range f.g.Nodes {
			v, err := c.vertex(dn.NodeID(id), partOf[id])
			if err == nil {
				v, err = c.need(v, want)
			}
			if err != nil {
				t.Fatal(err)
			}
			p.recs[id] = *v
		}
		p.decoded = c.arena.recs.Len()
		c.end(nil)
		p.pages, p.verified = acct.BufferHits+acct.RandomReads+acct.SequentialReads, acct.PagesVerified
		return p
	}
	// sharesNothing fails unless a query beginning now sees no shared table
	// and decodes every record itself.
	sharesNothing := func(ix *Index, why string) {
		t.Helper()
		c := &cursor{}
		c.begin(ix, nil)
		if c.shared != nil {
			t.Fatalf("%s: a query began with a shared table", why)
		}
		if p := readAll(ix, secOut); p.decoded != len(f.g.Nodes) {
			t.Fatalf("%s: a query decoded %d of %d records", why, p.decoded, len(f.g.Nodes))
		}
	}
	// The records a query that shares nothing decodes, and the index's size.
	plain, err := Build(f.g, Params{PoolPages: -1})
	if err != nil {
		t.Fatal(err)
	}
	fresh := readAll(plain, all)

	// The index under test fills a pool of its own size exactly, which a
	// second index shares: a read of that one displaces pages of this one.
	pool := pagefile.NewBufferPool(int(plain.store.NumPages()))
	ix, err := Build(f.g, Params{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	other, err := Build(newFixture(t, 30, 200, 18).g, Params{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if ix.decoded.Load() != nil {
		t.Fatal("Build filled a shared table")
	}
	// thawed is shared record s of vertex id as a query of ix reads it.
	thawed := func(id int, s *sharedRec) vertexRec {
		t.Helper()
		c := &cursor{}
		c.begin(ix, nil)
		if err := c.loadPartition(s.part); err != nil {
			t.Fatal(err)
		}
		var r diskRec
		s.thaw(dn.NodeID(id), c.parts[s.part].blob.Bytes(), &r)
		return r.vertexRec
	}

	first := readAll(ix, secOut)
	if first.decoded != len(f.g.Nodes) {
		t.Fatalf("first query decoded %d of %d records", first.decoded, len(f.g.Nodes))
	}
	table := ix.decoded.Load()
	if table == nil {
		t.Fatal("a query on a resident index published nothing")
	}
	shared := make([]*sharedRec, len(f.g.Nodes))
	for id := range shared {
		if shared[id] = table.load(dn.NodeID(id)); shared[id] == nil {
			t.Fatalf("vertex %d was not published", id)
		}
	}
	for pass := 0; pass < 2; pass++ {
		again := readAll(ix, secOut)
		if again.decoded != 0 {
			t.Fatalf("a resident index was decoded again: %d records", again.decoded)
		}
		if ix.decoded.Load() != table {
			t.Fatal("a query that decoded nothing replaced the shared table")
		}
		for id, v := range again.recs {
			s := table.load(dn.NodeID(id))
			if s != shared[id] {
				t.Fatalf("vertex %d was published again", id)
			}
			if &v.members[0] != &s.lists.members[s.members.lo] ||
				len(v.out.nodes) > 0 && &v.out.nodes[0] != &s.lists.nodes[s.out.lo] {
				t.Fatalf("vertex %d: the query read a copy, not the shared record", id)
			}
			if !sameRecord(&v, &first.recs[id]) {
				t.Fatalf("vertex %d: shared record differs from the one decoded", id)
			}
		}
		if again.pages != first.pages {
			t.Fatalf("a query touched %d pages, the first %d: shared records must not skip partition reads", again.pages, first.pages)
		}
		if again.verified != first.verified {
			t.Fatalf("a query verified %d pages, the first %d: a shared record must be verified by the read that uses it", again.verified, first.verified)
		}
	}

	// Sections a shared record lacks are decoded on a copy, which agrees
	// with a fresh decode; the shared record is not written.
	completed := readAll(ix, all)
	if completed.decoded != len(f.g.Nodes) {
		t.Fatalf("%d of %d records completed on a copy", completed.decoded, len(f.g.Nodes))
	}
	for id := range completed.recs {
		if !sameRecord(&completed.recs[id], &fresh.recs[id]) {
			t.Fatalf("vertex %d: record completed on demand differs from a fresh decode", id)
		}
		s := shared[id]
		if v := thawed(id, s); s.have != secOut || !sameRecord(&v, &first.recs[id]) {
			t.Fatalf("vertex %d: completing it on demand changed the shared record", id)
		}
		if v := thawed(id, table.load(dn.NodeID(id))); !sameRecord(&v, &fresh.recs[id]) {
			t.Fatalf("vertex %d: the completed record published differs from a fresh decode", id)
		}
	}
	if p := readAll(ix, all); p.decoded != 0 {
		t.Fatalf("the completed records were not published: %d decoded again", p.decoded)
	}

	// A shared record answers only through its own partition.
	c := &cursor{}
	c.begin(ix, nil)
	wrong := (partOf[0] + 1) % int32(len(parts))
	if v, err := c.vertex(0, wrong); !errors.Is(err, errNotListed) || v != nil {
		t.Fatalf("shared vertex 0 through partition %d (its own is %d): got %v, %v", wrong, partOf[0], v, err)
	}

	// Damage under a query that holds the table: the shared record is
	// verified like a fresh one, so the query fails. The table is retired.
	c.begin(ix, nil)
	if c.shared == nil {
		t.Fatal("a query on a resident index began without the shared table")
	}
	ref := ix.partRefs[partOf[0]]
	if err := ix.store.CorruptPage(ref.Page, int(ref.Off)+9); err != nil {
		t.Fatal(err)
	}
	if _, err := c.vertex(0, partOf[0]); !errors.Is(err, pagefile.ErrCorruptBlob) {
		t.Fatalf("shared vertex of a damaged partition: err = %v, want ErrCorruptBlob", err)
	}
	if err := ix.store.CorruptPage(ref.Page, int(ref.Off)+9); err != nil { // repair
		t.Fatal(err)
	}
	sharesNothing(ix, "after CorruptPage")

	readAll(ix, secOut)
	ix.DropCache()
	sharesNothing(ix, "after DropCache")

	// A query that fails publishes nothing.
	ix.DropCache()
	fails := &cursor{}
	fails.begin(ix, nil)
	if _, err := fails.vertex(0, partOf[0]); err != nil {
		t.Fatal(err)
	}
	fails.end(errors.New("the query failed"))
	if ix.decoded.Load().gen == fails.gen {
		t.Fatal("a failed query published its records")
	}

	// A read of the other index displaces pages of this one.
	readAll(ix, secOut)
	if _, _, err := other.AppendProfile(context.Background(), nil, seedsOf(0, 1, 2), contact.Interval{Lo: 0, Hi: 199}, queries.Forward, nil, nil); err != nil {
		t.Fatal(err)
	}
	sharesNothing(ix, "after a displacement")

	// Too small a pool displaces pages during every pass; no pool keeps no
	// page. Neither index ever fills a table.
	for _, poolPages := range []int{1, -1} {
		ix, err := Build(f.g, Params{PoolPages: poolPages})
		if err != nil {
			t.Fatal(err)
		}
		readAll(ix, secOut)
		if ix.decoded.Load() != nil {
			t.Fatalf("pool of %d pages: a query filled a shared table", poolPages)
		}
		sharesNothing(ix, fmt.Sprintf("pool of %d pages", poolPages))
	}
}
